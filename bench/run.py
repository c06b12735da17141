#!/usr/bin/env python3
"""Benchmark for sparseps: the f/g training loop and the ten-light protocol.

    python3 bench/run.py --workload {train,protocol} --seed N --seconds S --trace {0,1}

Each workload is one closed loop in one process.  A round trains f and g with
`train_alternating`, round-trips the checkpoints through save_model and
load_model, and runs `run_trials` for the `ls`, `trained` and `inpaint_ls`
solvers on the same ten-light draws from a rendered, saved and reloaded
sphere.  A run is made of whole rounds that fit into --seconds; the
workloads differ in how the round's time is shared (see WORKLOADS and
README.md).

Every output is checked against computations in checks.py.  Progress and the
attempted/failed counts go to stdout; the last line is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  Results and traces are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MAP_WIDTH = 32
LIGHTS_PER_TRIAL = 10
POOL_SIZE = 300
POOL_SEED = 202             # one fixed light pool, as a captured data set has
MAX_ZENITH_DEG = 75.0
BATCH = 128
EPOCHS = 1
SOLVERS = ("ls", "trained", "inpaint_ls")
SCHEDULE_BLOCK = 6          # five g steps, then one f step
FD_SAMPLES = 8              # dataset samples in the gradient check batch
FD_COORDS_PER_ARRAY = 2     # checked weight entries per layer
TRAINED_CHECK_PIXELS = 16   # sampled pixels re-solved per trial
INPAINT_CHECK_PIXELS = 3
# A trial rate is the rate that nine batches in ten reach or beat: the 10th
# percentile of the run's per-batch rates.  The shared host runs the same
# Python-bound code up to 1.6 times faster in phases of seconds to minutes,
# with the other guests' load; which phases a run happens to meet moves a
# mean or a median of its batches by up to 50% from run to run, the rate most
# batches reach far less.
RATE_QUANTILE = 0.1


@dataclass(frozen=True)
class Workload:
    points: int        # training points, each with `draws` light sets
    draws: int
    scene_res: int     # evaluation sphere is scene_res x scene_res pixels
    slots: tuple       # per evaluation slot: trials of ls, trained, inpaint_ls
    setups: int        # timed set-ups per round


WORKLOADS = {
    # Training on a criterion-8 sized set takes the largest share; a small
    # sphere keeps each trial cheap.  Many short slots give each trial rate
    # enough batches for a steady RATE_QUANTILE.
    "train": Workload(points=2500, draws=4, scene_res=16,
                      slots=((250, 2, 1), (250, 2, 0)) * 8,
                      setups=1),
    # The 32x32 protocol sphere dominates; the tiny dataset keeps Adam and
    # the batched mirror to a minor share of the round; its set-up is short,
    # so it is timed three times a round.
    "protocol": Workload(points=500, draws=4, scene_res=32,
                         slots=(((375, 1, 1),) + ((375, 1, 0),) * 3) * 2,
                         setups=3),
}

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "ls_trials_per_s": "trials/s",
    "trained_trials_per_s": "trials/s",
    "inpaint_ls_trials_per_s": "trials/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "obsmap.BatchReflection.init.calls": "count",
    "obsmap.BatchReflection.init.self_s": "s",
    "obsmap.BatchReflection.gather.self_s": "s",
    "obsmap.BatchReflection.adjoint.self_s": "s",
    "obsmap.BatchReflection.angle_derivative_of_gather.self_s": "s",
    "mlp.MlpModel.backward.self_s": "s",
    "mlp.adam_step.calls": "count",
    "mlp.adam_step.self_s": "s",
    "mlp.adam_step.gb_per_s": "GB/s",
    "mlp.MlpModel.forward_trace.self_s": "s",
    "mlp.gflop_per_s": "GFLOP/s",
    "solvers.ne_objective_and_grads.self_s": "s",
    "solvers.ne_objective_and_grads.ms_p50": "ms",
    "solvers.li_objective_and_grads.self_s": "s",
    "solvers.li_objective_and_grads.ms_p50": "ms",
    "solvers.train_alternating.self_s": "s",
    "obsmap.build_observation_map.calls": "count",
    "obsmap.build_observation_map.self_s": "s",
    "solvers.symmetry_inpaint.calls": "count",
    "solvers.symmetry_inpaint.self_s": "s",
    "obsmap.ReflectionPlan.init.self_s": "s",
    "solvers.ls_normal.calls": "count",
    "solvers.ls_normal.self_s": "s",
    "solvers.ls_normal_batch.self_s": "s",
    **{f"evaluation.run_trials.self_s.{s}": "s" for s in SOLVERS},
    **{f"evaluation.solve_batch.self_s.{s}": "s" for s in SOLVERS},
    **{f"evaluation.pixels_solved_ratio.{s}": "ratio" for s in SOLVERS},
    **{f"evaluation.pixels_solved.{s}": "count" for s in SOLVERS},
    **{f"evaluation.pixels_attempted.{s}": "count" for s in SOLVERS},
    "render.make_dense_gt_map.calls": "count",
    "render.make_dense_gt_map.self_s": "s",
    "geometry.sample_hemisphere_lights.self_s": "s",
    "render.render_sphere.self_s": "s",
    "render.save_scene.self_s": "s",
    "render.load_scene.self_s": "s",
    "fileio.read_pfm.calls": "count",
    "fileio.read_pfm.mb_per_s": "MB/s",
    "trace.overhead_share": "ratio",
    "trace.unaccounted_share": "ratio",
}


def import_program():
    """Import sparseps from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sparseps" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparseps sources under {src}")
    sys.path.insert(0, str(src))
    from sparseps import evaluation, fileio, geometry, mlp, obsmap, render, solvers
    from sparseps.errors import DivergenceError
    from sparseps.losses import LossWeights
    return SimpleNamespace(evaluation=evaluation, fileio=fileio,
                           geometry=geometry, mlp=mlp, obsmap=obsmap,
                           render=render, solvers=solvers,
                           DivergenceError=DivergenceError,
                           LossWeights=LossWeights)


# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------

def _forward_flops(args, kwargs, result):
    model, x = args[0], np.asarray(args[1])
    batch = 1 if x.ndim == 1 else x.shape[0]
    return 2.0 * batch * sum(l.weights.size for l in model.layers)


def _backward_flops(args, kwargs, result):
    model, grad_out = args[0], np.asarray(args[2])
    want = kwargs.get("want_param_grads", args[3] if len(args) > 3 else True)
    batch = 1 if grad_out.ndim == 1 else grad_out.shape[0]
    # gz @ W for every layer, plus gz^T @ a_prev when parameter grads are kept.
    return (4.0 if want else 2.0) * batch * sum(l.weights.size for l in model.layers)


def _adam_bytes(args, kwargs, result):
    # Reads param, grad, m, v and writes param, m, v: 7 float64 per parameter.
    model = args[0]
    return 56.0 * sum(l.weights.size + l.bias.size for l in model.layers)


def install_spans(tracer, sp):
    """Wrap every layer the per-layer metrics name, on each binding used."""
    wrap = tracer.wrap
    for mod in (sp.solvers, sp.evaluation, sp.render, sp.obsmap):
        wrap(mod, "build_observation_map", "obsmap.build_observation_map")
    for mod in (sp.solvers, sp.evaluation):
        wrap(mod, "symmetry_inpaint", "solvers.symmetry_inpaint")
        wrap(mod, "ls_normal", "solvers.ls_normal")
        wrap(mod, "ls_normal_batch", "solvers.ls_normal_batch")
    for mod in (sp.solvers, sp.render):
        wrap(mod, "make_dense_gt_map", "render.make_dense_gt_map")
    for mod in (sp.solvers, sp.geometry):
        wrap(mod, "sample_hemisphere_lights", "geometry.sample_hemisphere_lights")
    for name in ("train_alternating", "ne_objective_and_grads",
                 "li_objective_and_grads"):
        wrap(sp.solvers, name, f"solvers.{name}")
    wrap(sp.solvers, "adam_step", "mlp.adam_step", _adam_bytes)
    wrap(sp.mlp.MlpModel, "forward_trace", "mlp.MlpModel.forward_trace",
         _forward_flops)
    wrap(sp.mlp.MlpModel, "backward", "mlp.MlpModel.backward", _backward_flops)
    wrap(sp.obsmap.BatchReflection, "__init__", "obsmap.BatchReflection.init")
    for name in ("gather", "adjoint", "angle_derivative_of_gather"):
        wrap(sp.obsmap.BatchReflection, name, f"obsmap.BatchReflection.{name}")
    wrap(sp.obsmap.ReflectionPlan, "__init__", "obsmap.ReflectionPlan.init")
    for name in ("render_sphere", "save_scene", "load_scene"):
        wrap(sp.render, name, f"render.{name}")
    wrap(sp.fileio, "read_pfm", "fileio.read_pfm",
         lambda args, kwargs, image: image.size * 4 / 1e6)
    wrap(sp.evaluation, "run_trials",
         lambda args: f"evaluation.run_trials.{args[1].name}")
    for cls in (sp.evaluation.LsSolver, sp.evaluation.ModelSolver,
                sp.evaluation.InpaintLsSolver):
        wrap(cls, "solve_batch",
             lambda args: f"evaluation.solve_batch.{args[0].name}")


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

class Recorder:
    """Passes solve_batch through and keeps what the solver saw and returned."""

    def __init__(self, solver):
        self.solver = solver
        self.name = solver.name
        self.calls = []

    def solve_batch(self, lights, irradiance_matrix):
        normals, valid = self.solver.solve_batch(lights, irradiance_matrix)
        self.calls.append((lights, normals, valid))
        return normals, valid


class Run:
    def __init__(self, sp, args, workdir):
        self.sp = sp
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.workdir = workdir
        self.weights = sp.LossWeights(lambda_s=2e-3, lambda_a=2e-6)
        self.cfg = sp.solvers.TrainConfig(batch_size=BATCH, epochs=EPOCHS,
                                          seed=args.seed, weights=self.weights)
        self.brdf = sp.render.BlinnPhong(kd=0.15, ks=1.0, shininess=35.0)
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = Counter()
        self.check_failures = 0
        self.first_checkpoint = None
        self.pixels = {s: [0, 0] for s in SOLVERS}   # solved, attempted
        self.check_rng = np.random.default_rng([args.seed, 3])

    # -- set-up ------------------------------------------------------------

    def setup(self, rep):
        """Build the training set and the saved-and-reloaded evaluation scene."""
        sp = self.sp
        dataset = sp.solvers.make_training_set(
            self.spec.points, LIGHTS_PER_TRIAL, MAP_WIDTH,
            np.random.default_rng([self.args.seed, 1]),
            draws_per_point=self.spec.draws)
        pool = sp.geometry.sample_hemisphere_lights(
            POOL_SIZE, MAX_ZENITH_DEG, np.random.default_rng(POOL_SEED))
        rendered = sp.render.render_sphere(self.spec.scene_res, self.brdf, pool)
        scene_dir = os.path.join(self.workdir, f"scene{rep}")
        sp.render.save_scene(rendered, scene_dir)
        scene = sp.render.load_scene(scene_dir)
        return dataset, scene

    def check_scene(self, scene):
        truth, mask = checks.sphere_normals(self.spec.scene_res)
        ok = (np.array_equal(scene.mask, mask)
              and np.abs(scene.normals - truth).max() <= 1e-7
              and scene.lights.shape == (POOL_SIZE, 3))
        if not ok:
            self.fail_check("setup", "scene_roundtrip", 0)
        self.truth = truth[mask]

    # -- one round ---------------------------------------------------------

    def round(self, r, dataset, scene, spec):
        """Train, round-trip the checkpoints, then the evaluation slots.

        Each slot runs every solver's trials on one seed, so the solvers see
        the same draws; the slots spread each solver's trials over the round.
        """
        sp = self.sp
        out = {"times": Counter(), "batches": []}
        t0 = perf_counter()
        try:
            out["model"] = sp.solvers.train_alternating(dataset, self.cfg)
        except Exception as exc:   # counted and reported; the run goes on
            out["train_error"] = exc
            traceback.print_exc(file=sys.stderr)
        out["times"]["train"] = perf_counter() - t0
        solvers = {"ls": sp.evaluation.LsSolver(),
                   "inpaint_ls": sp.evaluation.InpaintLsSolver(w=MAP_WIDTH)}
        if "model" in out:
            paths = [os.path.join(self.workdir, f"{n}.spln") for n in ("li", "ne")]
            for model, path in zip(out["model"][:2], paths):
                sp.mlp.save_model(model, path)
            out["loaded"] = [sp.mlp.load_model(path) for path in paths]
            out["checkpoint"] = b"".join(Path(p).read_bytes() for p in paths)
            solvers["trained"] = sp.evaluation.ModelSolver(*out["loaded"], w=MAP_WIDTH)
        for slot, counts in enumerate(spec.slots):
            seed = 1000 * (1000 * self.args.seed + r + 1) + slot
            for name, count in zip(SOLVERS, counts):
                if count == 0:
                    continue
                batch = {"name": name, "seed": seed, "count": count,
                         "recorder": None, "report": None, "error": None,
                         "seconds": 0.0}
                out["batches"].append(batch)
                if name not in solvers:
                    continue
                batch["recorder"] = Recorder(solvers[name])
                cfg = sp.evaluation.TrialConfig(
                    n_trials=count, n_lights=LIGHTS_PER_TRIAL, seed=seed)
                t0 = perf_counter()
                try:
                    batch["report"] = sp.evaluation.run_trials(
                        scene, batch["recorder"], cfg)
                except Exception as exc:   # counted and reported; the run goes on
                    batch["error"] = exc
                    traceback.print_exc(file=sys.stderr)
                batch["seconds"] = perf_counter() - t0
                out["times"][name] += batch["seconds"]
        return out

    # -- checks --------------------------------------------------------------

    def fail_check(self, group, reason, count):
        self.failed[group] += count
        self.reasons[f"{group}: {reason}"] += max(count, 1)
        self.check_failures += 1

    def planned_steps(self, dataset):
        return EPOCHS * -(-len(dataset) // BATCH)

    def check_training(self, out, dataset):
        steps = self.planned_steps(dataset)
        self.attempted["train_steps"] += steps
        exc = out.get("train_error")
        if exc is not None:
            if isinstance(exc, self.sp.DivergenceError) and exc.step_index is not None:
                self.failed["train_steps"] += steps - exc.step_index
                self.reasons["train_steps: loss_not_finite"] += steps - exc.step_index
            else:
                self.failed["train_steps"] += steps
                self.reasons[f"train_steps: raised {type(exc).__name__}"] += steps
            return
        li, ne, trace = out["model"]
        expected = ["ne" if k % SCHEDULE_BLOCK < SCHEDULE_BLOCK - 1 else "li"
                    for k in range(steps)]
        wrong = sum(a != b for a, b in zip(trace.step_kinds, expected))
        wrong += abs(len(trace.step_kinds) - steps)
        if wrong:
            self.fail_check("train_steps", "schedule", wrong)
        losses = trace.ne_epoch_mean + trace.li_epoch_mean
        if not np.all(np.isfinite(losses)):
            self.fail_check("train_steps", "loss_not_finite", steps)
        if self.first_checkpoint is None:
            self.first_checkpoint = out["checkpoint"]
            pairs = [(a, b) for model, loaded in zip((li, ne), out["loaded"])
                     for a, b in zip(model.layers, loaded.layers)]
            if not all(np.array_equal(a.weights.astype(np.float32), b.weights)
                       and np.array_equal(a.bias.astype(np.float32), b.bias)
                       and a.activation == b.activation for a, b in pairs):
                self.fail_check("train_steps", "checkpoint_roundtrip", steps)
        elif out["checkpoint"] != self.first_checkpoint:
            self.fail_check("train_steps", "checkpoint_differs", steps)

    def check_trials(self, batch, out, scene):
        name, count = batch["name"], batch["count"]
        self.attempted[name] += count
        if batch["report"] is None:
            exc = batch["error"]
            why = "no_model" if exc is None else f"raised {type(exc).__name__}"
            self.failed[name] += count
            self.reasons[f"{name}: {why}"] += count
            return
        report = batch["report"]
        calls = batch["recorder"].calls
        if len(calls) != count or report.n_trials != count:
            self.fail_check(name, "trial_count", count)
            return
        pixel_values = scene.images[:, scene.mask]
        replay = np.random.default_rng(batch["seed"])
        excluded = 0
        for t, (lights, normals, valid) in enumerate(calls):
            idx = replay.choice(POOL_SIZE, size=LIGHTS_PER_TRIAL, replace=False)
            excluded += int((~valid).sum())
            self.pixels[name][0] += int(valid.sum())
            self.pixels[name][1] += valid.size
            reason = self.trial_fault(name, lights, pixel_values[idx], normals,
                                      valid, scene.lights[idx], out,
                                      report.per_trial_mean_deg[t])
            if reason:
                self.fail_check(name, reason, 1)
        if excluded != report.excluded_pixels:
            self.fail_check(name, "excluded_count", 0)

    def trial_fault(self, name, lights, irr, normals, valid, drawn, out, mean):
        """Why one trial fails its checks, or None."""
        if not np.array_equal(lights, drawn):
            return "draw_mismatch"
        if not np.isfinite(mean):
            return "mean_not_finite"
        if checks.unit_upper_violations(normals, valid):
            return "not_unit_upper"
        if abs(checks.mean_error_deg(normals, valid, self.truth) - mean) \
                > checks.MEAN_ERR_TOL_DEG:
            return "mean_error_mismatch"
        m = valid.size
        if name == "ls":
            ref, ref_valid = checks.ls_reference(lights, irr)
            bad = checks.normal_mismatches(normals, valid, ref, ref_valid)
        elif name == "trained":
            pix = self.check_rng.choice(m, size=min(TRAINED_CHECK_PIXELS, m),
                                        replace=False)
            layers = [[(l.weights, l.bias, l.activation) for l in model.layers]
                      for model in out["loaded"]]
            ref, ref_valid = checks.trained_reference(*layers, lights,
                                                      irr[:, pix], MAP_WIDTH)
            bad = checks.normal_mismatches(normals[pix], valid[pix], ref, ref_valid)
        else:
            pix = self.check_rng.choice(m, size=min(INPAINT_CHECK_PIXELS, m),
                                        replace=False)
            ref = [checks.inpaint_reference(lights, irr[:, p], MAP_WIDTH)
                   for p in pix]
            bad = checks.normal_mismatches(
                normals[pix], valid[pix], np.array([n for n, _ in ref]),
                np.array([v for _, v in ref]))
        return "reference_mismatch" if bad else None

    def check_gradients(self, li, ne, dataset):
        """Batched gradients against central differences of the per-sample
        objectives, at the final parameters, on a few sampled coordinates."""
        sp = self.sp
        rng = self.check_rng
        pick = rng.choice(len(dataset), size=FD_SAMPLES, replace=False)
        prep = reference_prep([dataset[i] for i in pick], MAP_WIDTH)
        idx = np.arange(FD_SAMPLES)
        summary = {}
        for tag, model, batched, objective in (
                ("ne", ne, sp.solvers.ne_objective_and_grads, sp.solvers.ne_objective),
                ("li", li, sp.solvers.li_objective_and_grads, sp.solvers.li_objective)):
            loss, grads = batched(li, ne, prep, idx, self.weights)
            per_sample = objective(li, ne, prep, idx, self.weights)
            if abs(loss - per_sample) > 1e-9 * max(1.0, abs(per_sample)):
                self.fail_check("train_steps", f"{tag}_loss_mismatch", 1)
            params = [p for layer in model.layers for p in (layer.weights, layer.bias)]
            flat_grads = [g for pair in grads for g in pair]
            coords = sample_coords(params, flat_grads, rng)
            bad, checked, skipped = checks.gradient_mismatches(
                lambda: objective(li, ne, prep, idx, self.weights),
                params, flat_grads, coords)
            if bad or checked == 0:
                self.fail_check("train_steps", f"{tag}_gradient_mismatch", 1)
            summary[tag] = {"checked": checked, "skipped_nonsmooth": skipped,
                            "mismatched": len(bad)}
        return summary


def sample_coords(params, grads, rng):
    """A few weight entries per layer whose gradient is not negligible."""
    coords = []
    for pi in range(0, len(params), 2):           # weights; biases follow
        g = np.abs(grads[pi]).ravel()
        big = np.nonzero(g >= 1e-3 * g.max())[0] if g.max() > 0 else []
        if len(big):
            for k in rng.choice(big, size=min(FD_COORDS_PER_ARRAY, len(big)),
                                replace=False):
                coords.append((pi, int(k)))
    return coords


def reference_prep(samples, w):
    """The dataset tensors the objectives read, built from the documented
    map definition rather than by the program."""
    s_maps, masks = [], []
    for sample, _, _ in samples:
        values, mask, _ = checks.observation_maps(
            sample.lights, sample.irradiance[:, None], w)
        s_maps.append(values[0].ravel())
        masks.append(mask.ravel().astype(float))
    n_gt = np.stack([np.asarray(n, float) for _, n, _ in samples])
    d_gt = [d for _, _, d in samples]
    d_gt_flat = np.stack([d.values.ravel() for d in d_gt])
    half = w // 2
    planar = n_gt[:, :2]
    norms = np.linalg.norm(planar, axis=1)
    axes = np.tile([1.0, 0.0], (len(samples), 1))
    axes[norms > 1e-6] = planar[norms > 1e-6] / norms[norms > 1e-6, None]
    return SimpleNamespace(
        s_flat=np.stack(s_maps), m_flat=np.stack(masks), n_gt=n_gt, d_gt=d_gt,
        d_gt_flat=d_gt_flat,
        d_gt_pooled_flat=d_gt_flat.reshape(-1, half, 2, half, 2)
        .mean(axis=(2, 4)).reshape(-1, half * half),
        gt_axes=axes, w=w, count=len(samples))


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

def layer_metrics(tracer, n_setups, n_rounds, overhead, unaccounted, pixels):
    """Per-layer metrics: counts and self times per set-up plus per round."""
    parts = []
    for prefix, n in (("setup", n_setups), ("round", n_rounds)):
        stats, _ = tracer.summary(lambda op, p=prefix: op.startswith(p))
        parts.append((stats, max(n, 1)))
    everything, _ = tracer.summary(lambda op: True)

    def per_unit(name, key):
        return sum(stats[name][key] / n for stats, n in parts if name in stats)

    def rate(names, scale=1.0):
        self_s = sum(everything[n]["self_s"] for n in names if n in everything)
        work = sum(everything[n]["work"] for n in names if n in everything)
        return work * scale / self_s if self_s > 0 else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s"):
            values[metric] = per_unit(layer, stat)
        elif stat == "ms_p50":
            values[metric] = 1000.0 * statistics.median(
                everything[layer]["durations"]) if layer in everything else 0.0
    for s in SOLVERS:
        values[f"evaluation.run_trials.self_s.{s}"] = per_unit(
            f"evaluation.run_trials.{s}", "self_s")
        values[f"evaluation.solve_batch.self_s.{s}"] = per_unit(
            f"evaluation.solve_batch.{s}", "self_s")
        solved, attempted = pixels[s]
        values[f"evaluation.pixels_solved_ratio.{s}"] = solved / attempted if attempted else 0.0
        # A traced run checks both passes of every round.
        values[f"evaluation.pixels_solved.{s}"] = solved / max(2 * n_rounds, 1)
        values[f"evaluation.pixels_attempted.{s}"] = attempted / max(2 * n_rounds, 1)
    values["mlp.adam_step.gb_per_s"] = rate(["mlp.adam_step"], 1e-9)
    values["mlp.gflop_per_s"] = rate(["mlp.MlpModel.forward_trace",
                                      "mlp.MlpModel.backward"], 1e-9)
    values["fileio.read_pfm.mb_per_s"] = rate(["fileio.read_pfm"])
    values["trace.overhead_share"] = overhead
    values["trace.unaccounted_share"] = unaccounted
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run(sp, args):
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return measure(sp, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(sp, args, workdir):
    bench = Run(sp, args, workdir)
    tracer = Tracer()
    origin = perf_counter()
    traced = bool(args.trace)

    def timed(op, action, spans=traced):
        """Run action() under op id `op`, with spans installed if asked;
        return its result and wall time."""
        tracer.op = op
        if spans:
            install_spans(tracer, sp)
        t0 = perf_counter()
        try:
            result = action()
        finally:
            tracer.remove()
        return result, perf_counter() - t0

    (dataset, scene), first_setup = timed("setup0", lambda: bench.setup(0))
    setup_times = [first_setup]
    bench.check_scene(scene)

    # Warm-up: one short training and one trial per solver, not measured.
    bench.round(-1, dataset[:2 * BATCH], scene,
                replace(bench.spec, slots=((1, 1, 1),)))

    busy = Counter()    # untraced seconds per key: train and each solver
    work = Counter()    # samples trained, trials run
    batch_rates = {s: [] for s in SOLVERS}   # untraced trials/s per batch
    plain_s, traced_s = 0.0, 0.0
    rounds = 0
    last_model = None
    start = perf_counter()
    round_s = 0.0
    # Whole rounds only: the next one starts if it is expected to end in time.
    while rounds == 0 or perf_counter() - start + round_s <= args.seconds:
        round_start = perf_counter()
        # A traced run does each round twice, untraced and traced, in turns
        # first, so the tracing overhead compares identical work.
        passes = ((False, True), (True, False))[rounds % 2] if traced else (False,)
        for with_spans in passes:
            out, wall = timed(f"round{rounds}",
                              lambda: bench.round(rounds, dataset, scene, bench.spec),
                              spans=with_spans)
            if with_spans:
                traced_s += wall
            else:
                plain_s += wall
                busy.update(out["times"])
                work["train"] += EPOCHS * len(dataset)
                for batch in out["batches"]:
                    work[batch["name"]] += batch["count"]
                    if batch["report"] is not None and batch["seconds"] > 0:
                        batch_rates[batch["name"]].append(
                            batch["count"] / batch["seconds"])
            bench.check_training(out, dataset)
            for batch in out["batches"]:
                bench.check_trials(batch, out, scene)
            if "model" in out:
                last_model = out["model"][:2]
        rounds += 1
        # Set-up is repeated every round, so its median samples the whole run
        # rather than one moment at its start.
        for _ in range(bench.spec.setups):
            _, seconds = timed(f"setup{len(setup_times)}",
                               lambda: bench.setup(len(setup_times)))
            setup_times.append(seconds)
        round_s = perf_counter() - round_start
    elapsed = perf_counter() - start

    fd = bench.check_gradients(*last_model, dataset) if last_model else {}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if traced:
        _, covered = tracer.summary(lambda op: op.startswith("round"))
        overhead = traced_s / plain_s - 1.0
        unaccounted = 1.0 - sum(covered.values()) / traced_s
        metrics = layer_metrics(tracer, len(setup_times), rounds, overhead,
                                unaccounted, bench.pixels)
    else:
        def batch_rate(name):
            rates = batch_rates[name]
            return float(np.quantile(rates, RATE_QUANTILE)) if rates else 0.0
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_samples_per_s": (work["train"] / busy["train"]
                                    if busy["train"] > 0 else 0.0),
            "ls_trials_per_s": batch_rate("ls"),
            "trained_trials_per_s": batch_rate("trained"),
            "inpaint_ls_trials_per_s": batch_rate("inpaint_ls"),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "measured_s": elapsed, "setup_times_s": setup_times,
        "busy_s": busy, "work": work, "batch_rates": batch_rates,
        "attempted": dict(bench.attempted), "failed": dict(bench.failed),
        "failure_reasons": dict(bench.reasons), "gradient_check": fd,
        "pixels_solved_attempted": bench.pixels,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds in {elapsed:.1f} s, set-up {setup_times}")
    for group in ("train_steps", *SOLVERS):
        print(f"  {group}: attempted {bench.attempted[group]} "
              f"failed {bench.failed[group]}")
    for reason, count in sorted(bench.reasons.items()):
        print(f"  failure {reason}: {count}")
    print(f"  gradient check: {json.dumps(fd)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": bench.check_failures == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    if traced:
        tracer.write(OUT_DIR / f"trace-{stem}.jsonl", origin)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sp = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    result = run(sp, args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
