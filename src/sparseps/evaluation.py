"""Trial-based evaluation: random sparse-light draws, noise sweeps, reports.

A scene is rendered once under a dense pool of lights; each trial draws a
small subset without replacement, runs a solver on every masked pixel, and
records the mean angular error in degrees.  Lighting-calibration noise is
modeled by handing the solver perturbed directions while the images remain
those captured under the true lights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from . import fileio
from .errors import DegenerateLightingError, ShapeError, SparsePSError
from .geometry import angular_error_deg, normalize_with_flip, perturb_light
from .mlp import dense_layer
from .obsmap import axis_from_normal, map_cell_lights, occupied_cells
from .render import RenderedScene, inject_cast_shadow
from .solvers import ls_normal_batch, symmetry_inpaint_maps

# Unused here, but bound: bench/run.py traces these names on this module.
from .obsmap import build_observation_map  # noqa: F401,E402
from .solvers import ls_normal, symmetry_inpaint  # noqa: F401,E402


@dataclass
class TrialConfig:
    n_trials: int = 100
    n_lights: int = 10
    seed: int = 0
    sigma_deg: float = 0.0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.n_lights < 3:
            raise ValueError("n_lights must be >= 3")


@dataclass
class EvalReport:
    solver: str
    seed: int
    n_trials: int
    n_lights: int
    sigma_deg: float
    per_trial_mean_deg: np.ndarray
    overall_mean_deg: float
    error_map_deg: np.ndarray       # last trial, zero outside the mask
    excluded_pixels: int


class LsSolver:
    """Per-pixel Lambertian least squares."""

    name = "ls"

    def solve_batch(self, lights, irradiance_matrix):
        return ls_normal_batch(lights, irradiance_matrix)


class InpaintLsSolver:
    """Bootstrap LS, symmetry inpainting, then LS on the completed maps.

    The bootstrap estimate supplies each pixel's mirror axis; the inpainted
    dense maps are read at the in-disk cell centres and refit in one batch.
    mirror_step=False gives the diffusion-only control variant.
    """

    def __init__(self, w=32, mirror_step=True):
        self.w = w
        self.mirror_step = mirror_step
        self.name = "inpaint_ls" if mirror_step else "diffusion_ls"

    def solve_batch(self, lights, irradiance_matrix):
        m = irradiance_matrix.shape[1]
        normals = np.zeros((m, 3))
        # An all-zero column, the one map occupied_cells flags, already
        # fails the bootstrap fit.
        boot, valid = ls_normal_batch(lights, irradiance_matrix)
        cells, values, _ = occupied_cells(lights, irradiance_matrix, self.w)
        axes = axis_from_normal(boot[valid]) if self.mirror_step else None
        dense = symmetry_inpaint_maps(self.w, cells, values[:, valid], axes)
        cell_lights, rows, cols = map_cell_lights(self.w)
        normals[valid], refit_valid = ls_normal_batch(
            cell_lights, dense[:, rows, cols].T)
        valid[valid] = refit_valid
        return normals, valid


class ModelSolver:
    """Trained interpolation + estimation models applied per pixel.

    All pixels of a trial share its light set and so its occupied map
    cells: ten lights fill at most 10 of the 1024 cells of a 32 x 32 map.
    f reads its sparse values and its mask only there (the mask is 1 there
    and 0 elsewhere) and g reads the sparse values there plus the whole
    dense map, so each model's first layer runs on those input columns
    alone, its weights restricted to them, and every pixel of the trial
    goes through f and g as one batch.  The products skip the first layers'
    zero terms, so the normals may differ from full-width maps' in the last
    ulps.

    The solver reuses one workspace across trials: f's and g's hidden
    outputs, g's restricted first-layer weights and g's input laid out as
    [occupied cells | dense map], into which f's last layer writes its
    dense maps directly.  Its buffers grow to the largest trial seen (about
    11.5 MiB at 793 pixels and ten lights) and are reused from then on, so
    a trial maps no fresh pages; g's weight columns are copied in on every
    trial, so a change to the models is always read.  The returned arrays
    are fresh.  Raises ShapeError when a model does not take 2 * w * w
    inputs.
    """

    name = "trained"

    def __init__(self, li, ne, w=32):
        for tag, model in (("f", li), ("g", ne)):
            if model.input_dim != 2 * w * w:
                raise ShapeError(f"model {tag} takes {model.input_dim} inputs, "
                                 f"but maps of width {w} give 2*w*w = {2 * w * w}")
        self.li = li
        self.ne = ne
        self.w = w
        self._buffers = {}

    def solve_batch(self, lights, irradiance_matrix):
        m = irradiance_matrix.shape[1]
        normals = np.zeros((m, 3))
        cells, values, valid = occupied_cells(lights, irradiance_matrix, self.w)
        if not valid.any():
            return normals, valid
        size = self.w * self.w
        k = cells.size
        s_occ = values[:, valid].T
        g_in = self._take("g_in", (s_occ.shape[0], k + size))
        f_first = self.li.layers[0].weights[:, np.concatenate([cells, size + cells])]
        self._forward("f", self.li, f_first,
                      np.concatenate([s_occ, np.ones_like(s_occ)], axis=1),
                      out=g_in, start=k)
        g_in[:, :k] = s_occ
        weights = self.ne.layers[0].weights
        g_first = self._take("g_first", (weights.shape[0], k + size))
        g_first[:, :k] = weights[:, cells]
        g_first[:, k:] = weights[:, size:]
        u = self._forward("g", self.ne, g_first, g_in)
        normals[valid], _, norms = normalize_with_flip(u)
        valid[valid] = norms > 0
        return normals, valid

    def _take(self, name, shape):
        """The workspace buffer `name` as a C-contiguous array of `shape`,
        holding whatever its last user left; it grows only when a trial
        needs more than it holds."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def _forward(self, tag, model, first_weights, a, out=None, start=0):
        """The model on a with its first layer's weights replaced, every
        output in the workspace; the last goes to out[:, start:] if given."""
        last = len(model.layers) - 1
        for i, layer in enumerate(model.layers):
            weights = first_weights if i == 0 else layer.weights
            if i == last and out is not None:
                a = dense_layer(a, weights, layer.bias, layer.activation, out, start)
            else:
                dest = self._take((tag, i), (a.shape[0], weights.shape[0]))
                a = dense_layer(a, weights, layer.bias, layer.activation, dest)
        return a


def run_trials(scene: RenderedScene, solver, cfg: TrialConfig) -> EvalReport:
    """Evaluate a solver over repeated random sparse-light draws.

    Each trial samples cfg.n_lights pool indices without replacement; with
    cfg.sigma_deg > 0 the solver receives perturbed directions while pixel
    values stay those imaged under the true lights.  The perturbations come
    from their own generator, so every noise level of a sweep sees the same
    light subsets.  Pixels a solver cannot handle are excluded from the trial
    mean and counted, as are all pixels of a draw whose lights do not span
    3D.  The overall mean averages the trials that have a valid pixel (the
    others record NaN); raises SparsePSError when no trial has one.
    """
    rng = np.random.default_rng(cfg.seed)
    noise_rng = np.random.default_rng([cfg.seed, 1])
    pool = scene.lights.shape[0]
    if cfg.n_lights > pool:
        raise ValueError("n_lights exceeds the rendered light pool")
    gt = scene.normals[scene.mask]
    pixel_values = scene.images[:, scene.mask]      # (pool, m)
    per_trial = np.zeros(cfg.n_trials)
    excluded = 0
    last_errors = None
    last_valid = None
    for trial in range(cfg.n_trials):
        idx = rng.choice(pool, size=cfg.n_lights, replace=False)
        true_lights = scene.lights[idx]
        irr = pixel_values[idx]
        if cfg.sigma_deg > 0:
            solver_lights = np.stack([
                perturb_light(l, cfg.sigma_deg, noise_rng) for l in true_lights
            ])
        else:
            solver_lights = true_lights
        try:
            normals, valid = solver.solve_batch(solver_lights, irr)
        except DegenerateLightingError:
            normals, valid = np.zeros((gt.shape[0], 3)), np.zeros(gt.shape[0], bool)
        errors = np.zeros(valid.shape[0])
        errors[valid] = angular_error_deg(normals[valid], gt[valid])
        excluded += int((~valid).sum())
        per_trial[trial] = float(errors[valid].mean()) if valid.any() else float("nan")
        last_errors, last_valid = errors, valid
    solved = ~np.isnan(per_trial)
    if not solved.any():
        raise SparsePSError(f"{solver.name}: no trial has a valid pixel")
    error_map = np.zeros_like(scene.mask, dtype=float)
    grid = np.zeros(last_valid.shape[0])
    grid[last_valid] = last_errors[last_valid]
    error_map[scene.mask] = grid
    return EvalReport(
        solver=solver.name,
        seed=cfg.seed,
        n_trials=cfg.n_trials,
        n_lights=cfg.n_lights,
        sigma_deg=cfg.sigma_deg,
        per_trial_mean_deg=per_trial,
        overall_mean_deg=float(per_trial[solved].mean()),
        error_map_deg=error_map,
        excluded_pixels=excluded,
    )


def noise_sweep(scene: RenderedScene, solver, sigmas, cfg: TrialConfig) -> List[EvalReport]:
    """run_trials once per noise level; sigmas must be sorted ascending."""
    sigmas = list(sigmas)
    if sigmas != sorted(sigmas):
        raise ValueError("sigmas must be sorted ascending")
    return [run_trials(scene, solver, replace(cfg, sigma_deg=s)) for s in sigmas]


def outlier_sensitivity(points, solver, half_angles_deg, seed=0):
    """Mean error per outlier severity level over a fixed set of points.

    Each point gets one random occluder direction (shared across levels, so
    larger cones strictly contain smaller ones); level 0 means no occlusion.
    Returns (table, nondecreasing) where table rows are
    (half_angle_deg, mean_error_deg).  Raises SparsePSError, naming the
    level, when the solver fails on every point of a level, which has no
    mean.
    """
    from .geometry import sample_hemisphere_lights
    from .render import OccluderCone

    if len(half_angles_deg) < 2:
        raise ValueError("need at least two severity levels")
    rng = np.random.default_rng(seed)
    centers = sample_hemisphere_lights(len(points), 90.0, rng)
    table = []
    for half in half_angles_deg:
        errors = []
        for point, center in zip(points, centers):
            shadowed = point if half <= 0 else inject_cast_shadow(
                point, OccluderCone(center, half))
            try:
                normals, valid = solver.solve_batch(
                    shadowed.lights, shadowed.irradiance[:, None])
            except SparsePSError:
                continue
            if not valid[0]:
                continue
            errors.append(angular_error_deg(normals[0], point.normal))
        if not errors:
            raise SparsePSError(
                f"outlier level {half:g} deg: the solver failed on every point")
        table.append((float(half), float(np.mean(errors))))
    means = [row[1] for row in table]
    nondecreasing = all(b >= a for a, b in zip(means, means[1:]))
    return table, nondecreasing


def write_report(report: EvalReport, path):
    """Write the report plus its error map as PFM and a PGM visualization.

    The text file is a key=value header followed by one per-trial error per
    line, six significant digits.  The PGM scales 45 degrees (and above) to
    255.  Companion files take the report path with _errmap suffixes.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"solver={report.solver}\n")
            fh.write(f"seed={report.seed}\n")
            fh.write(f"n_trials={report.n_trials}\n")
            fh.write(f"n_lights={report.n_lights}\n")
            fh.write(f"sigma={report.sigma_deg:.6g}\n")
            fh.write(f"mean_error_deg={report.overall_mean_deg:.6g}\n")
            fh.write(f"excluded_pixels={report.excluded_pixels}\n")
            for value in report.per_trial_mean_deg:
                fh.write(f"{value:.6g}\n")
        base, _ = os.path.splitext(str(path))
        fileio.write_pfm(base + "_errmap.pfm", report.error_map_deg)
        scaled = np.clip(report.error_map_deg / 45.0 * 255.0, 0, 255)
        fileio.write_pgm(base + "_errmap.pgm", np.rint(scaled).astype(np.uint8))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path):
    """Parse a report written by write_report; returns (header dict, trials)."""
    header = {}
    trials = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" in line:
                key, value = line.split("=", 1)
                header[key] = value
            else:
                trials.append(float(line))
    return header, np.asarray(trials)
