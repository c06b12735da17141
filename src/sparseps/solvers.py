"""Normal estimation and lighting interpolation solvers.

Three routes from sparse observations to a surface normal:

* a classical Lambertian least-squares fit,
* a deterministic inpainter that completes a sparse map using the mirror
  symmetry of isotropic reflectance before re-fitting,
* a pair of small trainable models: an interpolation model f mapping sparse
  maps to dense ones and an estimation model g mapping maps to normals,
  optimized alternately (several g updates per f update) with the symmetry
  losses steering both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import (
    DegenerateLightingError,
    DegenerateSamplesError,
    DivergenceError,
    NormalizationError,
)
from .geometry import normalize_with_flip, sample_hemisphere_lights
from .losses import (
    DEFAULT_WEIGHTS,
    LossWeights,
    SymmetryTerms,
    _pool_quarter,
    _sign,
    dpsi_dn,
    reflections,
    row_blocks,
)
from .mlp import AdamState, MlpModel, adam_step, init_model
from .obsmap import (
    ObservationMap,
    PixelSamples,
    axis_from_normal,
    build_sample_maps,
    map_cell_lights,
    mirror_fill,
)
from .render import BlinnPhong, Lambertian, make_dense_gt_map, shade

# Unused here, but bound: bench/run.py traces this name on this module.
from .obsmap import build_observation_map  # noqa: F401,E402


# ---------------------------------------------------------------------------
# Classical least-squares baseline
# ---------------------------------------------------------------------------

def ls_normal_batch(lights, irradiance_matrix):
    """Lambertian least squares over many pixels sharing one light set.

    Solves min ||L b - i|| for b = albedo * n, one column of irradiance_matrix
    (k, m) per pixel.  Returns (normals (m, 3), valid (m,)) with each
    normal's z sign forced nonnegative; invalid marks pixels whose fit
    vanished.  Raises DegenerateLightingError when the lights do not span 3D.
    """
    normals, albedo = _ls_fit(lights, irradiance_matrix)
    return normals, albedo > 0


def ls_normal(lights, irradiances):
    """ls_normal_batch for one pixel; returns (normal, albedo).

    Raises NormalizationError when the fitted vector vanishes.
    """
    normals, albedo = _ls_fit(lights, np.asarray(irradiances, dtype=float)[:, None])
    if albedo[0] == 0.0:
        raise NormalizationError("least-squares fit produced a zero vector")
    return normals[0], float(albedo[0])


def _ls_fit(lights, irradiance_matrix):
    lights = np.asarray(lights, dtype=float)
    irr = np.asarray(irradiance_matrix, dtype=float)
    if lights.shape[0] < 3:
        raise DegenerateLightingError("need >= 3 lights spanning 3D")
    b, _, rank, _ = np.linalg.lstsq(lights, irr, rcond=None)      # (3, m)
    if rank < 3:
        raise DegenerateLightingError("need >= 3 lights spanning 3D")
    normals, _, norms = normalize_with_flip(b.T)
    return normals, norms


# ---------------------------------------------------------------------------
# Deterministic symmetry inpainter
# ---------------------------------------------------------------------------

def symmetry_inpaint_maps(w, cells, values, axes=None):
    """Complete a stack of sparse w x w maps: mirror known cells about each
    map's axis, then diffuse until every cell is filled.

    The maps share their known cells, which are never modified: cells (n,)
    are the flat cells row * w + col and values (n, m) each map's value
    there, laid out as obsmap.occupied_cells returns them.  With unit axes
    (m, 2), the mirror step copies (nearest neighbor) the value of the
    reflected cell into each empty cell whose reflection is known; only the
    3 x 3 blocks around the known cells' own mirror positions can hold such
    a cell, so only those are tested (obsmap.mirror_fill).  axes=None skips
    the step.  Remaining holes are filled by passes over the frontier, the
    empty cells with a filled 3x3 neighbor: each takes the mean of its
    filled neighbors, summed row by row.  The filled flags are bytes in a
    zero-bordered stack, so a pass counts every cell's filled neighbors
    with four shifted adds and reads the frontier's neighbor values through
    fixed shifted views of the stack.  Returns the dense values (m, w, w),
    clipped to [0, 1] outside the known cells.  With no known cell the maps
    stay zero.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[1]

    # Zero-bordered stack: every cell's 3x3 neighborhood is in bounds, and
    # empty and border cells hold value +0.0 and flag 0.  Cell r*w + c of
    # a map is (r+1)*side + c+1 of its padded block.
    side = w + 2
    cells = np.asarray(cells, dtype=np.int64)
    pad_cells = cells + 2 * (cells // w) + side + 1
    padded_v = np.zeros((m, side, side))
    filled = np.zeros((m, side, side), dtype=np.uint8)
    padded_v.reshape(m, -1)[:, pad_cells] = values.T
    filled.reshape(m, -1)[:, pad_cells] = 1
    flat_v = padded_v.reshape(-1)
    flat_f = filled.reshape(-1)
    if axes is not None:
        dst, src = mirror_fill(w, axes, cells)
        # Stack index k*w*w + r*w + c -> padded index k*side*side
        # + (r+1)*side + c+1.
        dst, src = ((i + 2 * (i // w) + 2 * side * (i // (w * w)) + side + 1)
                    for i in (dst, src))
        flat_v[dst] = flat_v[src]
        flat_f[dst] = 1
    # 1 at the empty interior cells, 0 at the filled and the border.
    empty = np.zeros_like(filled)
    np.subtract(1, filled[:, 1:-1, 1:-1], out=empty[:, 1:-1, 1:-1])
    # Cell lo + j, lo = side + 1, is centre j of the count array below; its
    # neighbor (dr, dc) is flat_v[j + (dr + 1) * side + dc + 1].  A frontier
    # cell itself holds +0.0, which leaves a sum that is never -0.0
    # unchanged, so its own view is left out of the sums.
    lo = side + 1
    views = [flat_v[(dr + 1) * side + dc + 1:] for dr in (-1, 0, 1)
             for dc in (-1, 0, 1) if dr or dc]
    centre_v, centre_f = flat_v[lo:], flat_f[lo:]
    centre_empty = empty.reshape(-1)[lo:-lo]
    while True:
        across = flat_f[:-2] + flat_f[1:-1]
        across += flat_f[2:]
        count = across[:-2 * side] + across[side:-side]
        count += across[2 * side:]
        # min(count, empty) is 1 on the frontier and 0 elsewhere, so it
        # reads as bool; `across` is done with and holds it.
        j = np.flatnonzero(np.minimum(count, centre_empty, out=across[:count.size])
                           .view(bool))
        if j.size == 0:
            break
        sums = np.zeros(j.size)
        for view in views:
            sums += view.take(j)
        centre_v[j] = sums / count.take(j)
        centre_f[j] = 1
        centre_empty[j] = 0

    out = np.clip(padded_v[:, 1:-1, 1:-1], 0.0, 1.0)
    out.reshape(m, -1)[:, cells] = values.T
    return out


def symmetry_inpaint(S: ObservationMap, n_hint=None,
                     mirror_step=True) -> ObservationMap:
    """Complete one sparse map: symmetry_inpaint_maps on a batch of one.

    The mirror axis is axis_from_normal(n_hint); without a hint, or with
    mirror_step=False (the diffusion-only baseline), only diffusion runs.
    """
    cells = np.flatnonzero(S.mask)
    if cells.size == 0:
        raise DegenerateSamplesError("inpainting requires at least one known cell")
    axes = None
    if mirror_step and n_hint is not None:
        axes = axis_from_normal(n_hint)[None]
    dense = symmetry_inpaint_maps(S.width, cells, S.values.ravel()[cells, None], axes)[0]
    return ObservationMap(dense, np.ones_like(S.mask))


def dense_map_to_samples(D: ObservationMap) -> PixelSamples:
    """Treat each in-disk cell center as a light with the cell's value."""
    lights, rows, cols = map_cell_lights(D.width)
    return PixelSamples(lights, D.values[rows, cols])


# ---------------------------------------------------------------------------
# Trainable models
# ---------------------------------------------------------------------------

def new_li_model(w, rng, hidden=(256, 256)) -> MlpModel:
    """Interpolation model f: [sparse values, mask] -> dense values."""
    dims = [2 * w * w, *hidden, w * w]
    acts = ["relu"] * len(hidden) + ["sigmoid"]
    return init_model(dims, acts, rng)


def new_ne_model(w, rng, hidden=(128, 64)) -> MlpModel:
    """Estimation model g: [sparse values, dense values] -> raw normal."""
    dims = [2 * w * w, *hidden, 3]
    acts = ["relu"] * len(hidden) + ["linear"]
    return init_model(dims, acts, rng)


# ---------------------------------------------------------------------------
# Alternating training
# ---------------------------------------------------------------------------

# Estimation (g) updates per interpolation (f) update.
NE_STEPS_PER_LI_STEP = 5


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    li_hidden: tuple = (256, 256)
    ne_hidden: tuple = (128, 64)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class TrainTrace:
    """Per-step kinds and per-epoch mean losses recorded during training.

    An epoch with no step of a kind (a short epoch can end before its first
    f step) records NaN as that kind's mean.
    """

    step_kinds: List[str] = field(default_factory=list)
    ne_epoch_mean: List[float] = field(default_factory=list)
    li_epoch_mean: List[float] = field(default_factory=list)

    @property
    def ne_steps(self) -> int:
        return self.step_kinds.count("ne")

    @property
    def li_steps(self) -> int:
        return self.step_kinds.count("li")


class _SparseRows:
    """A (count, size) stack, zero outside a few cells of each row, kept as
    cells and values (count, k): each row's occupied cells, the last one
    repeated as padding (scattering its value twice), and their values.
    Indexing hands out dense rows: zeros with the values scattered in."""

    def __init__(self, flat, values, count, size):
        counts = np.bincount(flat // size, minlength=count)
        starts = np.cumsum(counts) - counts
        pick = starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
        self.cells = (flat % size)[pick]
        self.values = values[pick]
        self.size = size

    def __getitem__(self, idx):
        cells = self.cells[idx]
        out = np.zeros(cells.shape[:-1] + (self.size,), self.values.dtype)
        np.put_along_axis(out, cells, self.values[idx], axis=-1)
        return out

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)


class _SharedRows:
    """A (count, n) stack kept as its distinct rows, table, and each row's
    place among them, row: indexing hands out table[row[idx]]."""

    def __init__(self, table, row):
        self.table, self.row = table, row

    def __getitem__(self, idx):
        return self.table[self.row[idx]]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)


class _Prepared:
    """Dataset tensors shared by every training step.

    The sparse maps s_flat and their masks m_flat (uint8 0/1) keep each
    sample's occupied cells (obsmap.build_sample_maps); the reference maps
    keep one row per map object, which make_training_set shares among a
    point's draws.  Indexed, each hands out the bits of dense rows.
    """

    def __init__(self, dataset, w):
        self.count = len(dataset)
        cells, values = build_sample_maps([samples for samples, _, _ in dataset], w)
        self.s_flat = _SparseRows(cells, values, self.count, w * w)
        self.m_flat = _SparseRows(cells, np.ones(cells.size, np.uint8), self.count, w * w)
        self.n_gt = np.stack([np.asarray(n, dtype=float) for _, n, _ in dataset])
        maps = {}
        point = np.array([maps.setdefault(id(d), (len(maps), d))[0] for _, _, d in dataset])
        table = np.stack([d.values.ravel() for _, d in maps.values()])
        self.d_gt_flat = _SharedRows(table, point)
        self.d_gt_pooled_flat = _SharedRows(_pool_quarter(table, w), point)
        self.gt_axes = axis_from_normal(self.n_gt)
        self.w = w


def _batch_maps(prep, idx):
    """The batch's sparse maps and masks, gathered once."""
    if len(idx) == 0:
        raise ValueError("empty batch: idx selects no samples")
    return prep.s_flat[idx], prep.m_flat[idx]


def _normalize_training(u):
    """normalize_with_flip for raw training normals, which must not vanish."""
    n, flip, norms = normalize_with_flip(u)
    if np.any(norms == 0.0):
        raise NormalizationError("zero raw normal during training")
    return n, flip, norms


def _recon_terms_batch(n, n_gt):
    """Angles and tangent-space arccos gradients for a batch of normals."""
    t = np.clip(np.sum(n * n_gt, axis=1), -1.0, 1.0)
    angles = np.arccos(t)
    e = n_gt - t[:, None] * n
    norm_e = np.linalg.norm(e, axis=1)
    grad = np.zeros_like(n)
    good = norm_e >= 1e-12
    grad[good] = -e[good] / norm_e[good, None]
    return angles, grad


def ne_objective_and_grads(li: MlpModel, ne: MlpModel, prep: _Prepared, idx,
                           weights: LossWeights = DEFAULT_WEIGHTS):
    """Mean estimation loss over a batch and its gradients for g's parameters.

    The interpolation model is frozen: it only supplies the dense maps fed to
    g.  The symmetry terms are evaluated on the ground-truth maps, mirrored
    about the predicted normal, so their gradients flow through the mirror
    axis angle.
    """
    s_b, m_b = _batch_maps(prep, idx)
    d_flat = li.forward(np.concatenate([s_b, m_b], axis=1))
    u, cache = ne.forward_trace(np.concatenate([s_b, d_flat], axis=1))
    batch = len(idx)
    n, flip, norms = _normalize_training(u)
    n_gt = prep.n_gt[idx]
    angles, recon_g = _recon_terms_batch(n, n_gt)
    axes = axis_from_normal(n)

    def block(rows):
        sub = idx[rows]
        terms = SymmetryTerms(prep.d_gt_flat[sub], *reflections(prep.w, axes[rows]),
                              weights, pooled=prep.d_gt_pooled_flat[sub])
        d_sym, d_asym = terms.angle_grads()
        return (terms.sym, terms.asym,
                weights.lambda_s * d_sym + weights.lambda_a * d_asym)

    sym, asym, dpsi = row_blocks(batch, block)
    g_n = dpsi[:, None] * dpsi_dn(n)
    g_tan = g_n - n * np.sum(n * g_n, axis=1)[:, None] + recon_g
    grad_u = flip[:, None] * g_tan / norms[:, None]
    total = float(np.mean(angles + weights.lambda_s * sym
                          + weights.lambda_a * asym))
    param_grads, _ = ne.backward(cache, grad_u / batch, want_input_grad=False)
    return total, param_grads


def li_objective_and_grads(li: MlpModel, ne: MlpModel, prep: _Prepared, idx,
                           weights: LossWeights = DEFAULT_WEIGHTS):
    """Mean interpolation loss over a batch and its gradients for f's parameters.

    The estimation model is frozen but the angle term still backpropagates
    through it into the generated map; the symmetry terms are evaluated on
    the generated map about the ground-truth normal's axis.
    """
    s_b, m_b = _batch_maps(prep, idx)
    d_flat, cache_li = li.forward_trace(np.concatenate([s_b, m_b], axis=1))
    u, cache_ne = ne.forward_trace(np.concatenate([s_b, d_flat], axis=1))
    n, flip, norms = _normalize_training(u)
    n_gt = prep.n_gt[idx]
    angles, recon_g = _recon_terms_batch(n, n_gt)
    grad_u = flip[:, None] * recon_g / norms[:, None]
    _, grad_x_ne = ne.backward(cache_ne, grad_u, want_param_grads=False)

    batch = len(idx)
    w = prep.w

    def block(rows):
        sub = idx[rows]
        d = d_flat[rows]
        diff = d - prep.d_gt_flat[sub]
        m_s = m_b[rows]
        terms = SymmetryTerms(d, *reflections(w, prep.gt_axes[sub]), weights)
        g_sym, g_asym = terms.value_grads()
        s = _sign(diff)
        grad_d = s + m_s * s + weights.lambda_s * g_sym + weights.lambda_a * g_asym
        grad_d += grad_x_ne[rows, w * w:]
        grad_d /= batch
        return (np.abs(diff).sum(axis=1), np.abs(m_s * diff).sum(axis=1),
                terms.sym, terms.asym, grad_d)

    l1, masked, sym, asym, grad_d = row_blocks(batch, block)
    total = float(np.mean(angles + l1 + masked + weights.lambda_s * sym
                          + weights.lambda_a * asym))
    param_grads, _ = li.backward(cache_li, grad_d, want_input_grad=False)
    return total, param_grads


def ne_objective(li, ne, prep, idx, weights=DEFAULT_WEIGHTS):
    """Loss-only estimation objective, evaluated per sample through the
    public loss functions (the independent route for gradient checks)."""
    from .losses import ne_total_loss

    s_b, m_b = _batch_maps(prep, idx)
    d_flat = li.forward(np.concatenate([s_b, m_b], axis=1))
    n, _, _ = _normalize_training(ne.forward(np.concatenate([s_b, d_flat], axis=1)))
    total = 0.0
    for j, i in enumerate(idx):
        total += ne_total_loss(n[j], prep.n_gt[i], _dense_map(prep.d_gt_flat[i], prep.w),
                               weights)
    return total / len(idx)


def li_objective(li, ne, prep, idx, weights=DEFAULT_WEIGHTS):
    """Loss-only interpolation objective, evaluated per sample through the
    public loss functions (the independent route for gradient checks)."""
    from .losses import li_total_loss

    s_b, m_b = _batch_maps(prep, idx)
    d_flat = li.forward(np.concatenate([s_b, m_b], axis=1))
    n, _, _ = _normalize_training(ne.forward(np.concatenate([s_b, d_flat], axis=1)))
    w = prep.w
    total = 0.0
    for j, i in enumerate(idx):
        m_s = prep.m_flat[i].reshape(w, w)
        total += li_total_loss(n[j], prep.n_gt[i], _dense_map(d_flat[j], w),
                               _dense_map(prep.d_gt_flat[i], w), m_s, weights)
    return total / len(idx)


def _dense_map(row, w):
    """A flat (w*w,) row as a fully occupied w x w map."""
    return ObservationMap(row.reshape(w, w), np.ones((w, w), np.uint8))


def train_alternating(dataset, cfg: TrainConfig):
    """Alternating Adam optimization of the two models.

    Repeats blocks of NE_STEPS_PER_LI_STEP estimation updates followed by
    one interpolation update, drawing minibatches from a reshuffled pass over
    the dataset each epoch.  Fully deterministic for a fixed seed.  Raises
    DivergenceError (with the step index) if a batch loss goes non-finite,
    and ValueError for an odd map width, which the pooled terms cannot halve.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    w = dataset[0][2].width
    if w % 2:
        raise ValueError(f"map width w = {w} must be even: the asymmetric "
                         "loss pools 2 x 2 cells")
    prep = _Prepared(dataset, w)
    rng = np.random.default_rng(cfg.seed)
    li = new_li_model(w, rng, cfg.li_hidden)
    ne = new_ne_model(w, rng, cfg.ne_hidden)
    adam_li = AdamState.for_model(li)
    adam_ne = AdamState.for_model(ne)
    trace = TrainTrace()
    order = np.arange(prep.count)
    block = NE_STEPS_PER_LI_STEP + 1
    step = 0
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        ne_losses = []
        li_losses = []
        for start in range(0, prep.count, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if step % block < NE_STEPS_PER_LI_STEP:
                loss, grads = ne_objective_and_grads(li, ne, prep, idx, cfg.weights)
                adam_step(ne, grads, adam_ne, cfg.learning_rate)
                trace.step_kinds.append("ne")
                ne_losses.append(loss)
            else:
                loss, grads = li_objective_and_grads(li, ne, prep, idx, cfg.weights)
                adam_step(li, grads, adam_li, cfg.learning_rate)
                trace.step_kinds.append("li")
                li_losses.append(loss)
            if not np.isfinite(loss):
                raise DivergenceError("non-finite training loss", step_index=step)
            step += 1
        trace.ne_epoch_mean.append(float(np.mean(ne_losses)) if ne_losses else float("nan"))
        trace.li_epoch_mean.append(float(np.mean(li_losses)) if li_losses else float("nan"))
    return li, ne, trace


# ---------------------------------------------------------------------------
# Synthetic training data
# ---------------------------------------------------------------------------

def make_training_set(count, lights_per_point=10, w=32, rng=None,
                      min_nz=0.1, dense_lights=1000,
                      draws_per_point=1):
    """Build (samples, normal, dense map) triples from random sphere points.

    Normals are drawn uniformly over the unit disk (matching the pixel
    distribution of an orthographic sphere); the reflectance of each point is
    Lambertian or Blinn-Phong with random parameters.  Each point contributes
    `draws_per_point` independent sparse light sets sharing one dense
    reference map, which diversifies the sparsity patterns seen per surface
    sample.  Lights lie within 75 degrees of the zenith; draws whose lights
    all land in attached shadow are redrawn.
    """
    rng = np.random.default_rng(rng)
    dataset = []
    points = 0
    while points < count:
        x, y = rng.uniform(-1.0, 1.0, size=2)
        rr = x * x + y * y
        if rr >= 1.0:
            continue
        z = np.sqrt(1.0 - rr)
        if z < min_nz:
            continue
        n = np.array([x, y, z])
        if rng.uniform() < 0.5:
            brdf = Lambertian(albedo=float(rng.uniform(0.3, 1.0)))
        else:
            brdf = BlinnPhong(
                kd=float(rng.uniform(0.1, 0.6)),
                ks=float(rng.uniform(0.2, 1.0)),
                shininess=float(rng.uniform(4.0, 40.0)),
            )
        draws = []
        attempts = 0
        while len(draws) < draws_per_point and attempts < 20 * draws_per_point:
            attempts += 1
            lights = sample_hemisphere_lights(lights_per_point, 75.0, rng)
            irr = shade(n, lights, brdf)
            if irr.max() <= 0.0:
                continue
            draws.append(PixelSamples(lights, irr, n))
        if not draws:
            continue
        d_gt = make_dense_gt_map(n, brdf, dense_lights, w)
        for samples in draws:
            dataset.append((samples, n, d_gt))
        points += 1
    return dataset
