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
    ShapeError,
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
)
from .mlp import AdamState, MlpModel, adam_step, init_model
from .obsmap import (
    ObservationMap,
    PixelSamples,
    axis_from_normal,
    build_observation_map,
    build_sample_maps,
    map_cell_lights,
    mirror_sources,
)
from .render import BlinnPhong, Lambertian, make_dense_gt_map, shade


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

def symmetry_inpaint_maps(values, known, axes=None, iterations=None):
    """Complete a stack of sparse maps: mirror known cells about each map's
    axis, then diffuse until every cell is filled.

    values (m, w, w) holds the sparse maps and known (m, w, w) or (w, w)
    their known cells, which are never modified.  With axes (m, 2), the
    mirror step copies (nearest neighbor) the value of the reflected cell
    into each empty cell whose reflection is known; axes=None skips it.
    Remaining holes are filled by repeated 3x3 masked-mean passes, each
    computed only on the cells it fills.  `iterations`, when given, caps the
    passes, with a map's leftovers taking the mean of its filled cells.
    Returns the dense values (m, w, w), clipped to [0, 1] outside the known
    cells.  Every map needs at least one known cell.
    """
    values = np.asarray(values, dtype=float)
    m, w = values.shape[0], values.shape[-1]
    known = np.broadcast_to(np.asarray(known, dtype=bool), values.shape)
    current = np.where(known, values, 0.0).reshape(m, w * w)
    filled = known.reshape(m, w * w).copy()
    if axes is not None:
        src, take = mirror_sources(w, axes)
        take &= ~filled
        take[take] = known.reshape(-1)[src[take]]
        current[take] = current.reshape(-1)[src[take]]
        filled |= take

    # Zero-padded buffers: every cell's 3x3 neighborhood is in bounds.
    side = w + 2
    padded_v = np.zeros((m, side, side))
    padded_f = np.zeros((m, side, side), dtype=bool)
    padded_v[:, 1:-1, 1:-1] = current.reshape(m, w, w)
    padded_f[:, 1:-1, 1:-1] = filled.reshape(m, w, w)
    del current, filled          # lower the peak memory of the passes
    flat_v = padded_v.reshape(-1)
    flat_f = padded_f.reshape(-1)
    grow = np.zeros_like(padded_f)
    offsets = [dr * side + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    passes = 0
    while True:
        # The cells a pass fills: empty ones in the 3x3 dilation of the filled.
        across = padded_f[:, :, :-2] | padded_f[:, :, 1:-1] | padded_f[:, :, 2:]
        np.logical_and(across[:, :-2] | across[:, 1:-1] | across[:, 2:],
                       ~padded_f[:, 1:-1, 1:-1], out=grow[:, 1:-1, 1:-1])
        centre = np.flatnonzero(grow)
        if centre.size == 0:
            break
        if iterations is not None and passes >= iterations:
            for k in np.unique(centre // (side * side)):
                grid, have = padded_v[k, 1:-1, 1:-1], padded_f[k, 1:-1, 1:-1]
                grid[~have] = grid[have].mean()
            break
        sums = np.zeros(centre.size)
        counts = np.zeros(centre.size, dtype=np.int8)
        for off in offsets:
            sums += flat_v[centre + off]
            counts += flat_f[centre + off]
        flat_v[centre] = sums / counts
        flat_f[centre] = True
        passes += 1

    return np.where(known, values, np.clip(padded_v[:, 1:-1, 1:-1], 0.0, 1.0))


def symmetry_inpaint(S: ObservationMap, m_s=None, n_hint=None, iterations=None,
                     mirror_step=True) -> ObservationMap:
    """Complete one sparse map: symmetry_inpaint_maps on a batch of one.

    The mirror axis is axis_from_normal(n_hint); without a hint, or with
    mirror_step=False (the diffusion-only baseline), only diffusion runs.
    """
    known = (S.mask if m_s is None else np.asarray(m_s)).astype(bool)
    if not known.any():
        raise DegenerateSamplesError("inpainting requires at least one known cell")
    axes = None
    if mirror_step and n_hint is not None:
        axes = axis_from_normal(n_hint)[None]
    dense = symmetry_inpaint_maps(S.values[None], known, axes, iterations)[0]
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


def _model_width(model: MlpModel) -> int:
    w = int(round(np.sqrt(model.input_dim / 2)))
    if 2 * w * w != model.input_dim:
        raise ShapeError(f"model input dim {model.input_dim} is not 2*w^2")
    return w


def li_forward(model: MlpModel, S: ObservationMap, m_s=None) -> ObservationMap:
    """Run the interpolation model; the output map has a full mask."""
    w = _model_width(model)
    if S.width != w:
        raise ShapeError(f"model expects {w}x{w} maps, got {S.width}x{S.width}")
    mask = (S.mask if m_s is None else np.asarray(m_s)).astype(float)
    x = np.concatenate([S.values.ravel(), mask.ravel()])
    y = model.forward(x)
    return ObservationMap(y.reshape(w, w), np.ones((w, w), dtype=np.uint8))


def ne_forward(model: MlpModel, S: ObservationMap, D: ObservationMap):
    """Run the estimation model; returns a unit normal with z >= 0."""
    w = _model_width(model)
    if S.width != w or D.width != w:
        raise ShapeError(f"model expects {w}x{w} maps")
    x = np.concatenate([S.values.ravel(), D.values.ravel()])
    n, _, norms = normalize_with_flip(model.forward(x)[None])
    if norms[0] == 0.0:
        raise NormalizationError("estimation model produced a zero vector")
    return n[0]


def infer(li: MlpModel, ne: MlpModel, samples: PixelSamples, w: int):
    """Sparse samples -> (interpolated dense map, estimated normal)."""
    S = build_observation_map(samples, w)
    D = li_forward(li, S)
    return D, ne_forward(ne, S, D)


# ---------------------------------------------------------------------------
# Alternating training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 128
    ne_steps_per_li_step: int = 5
    epochs: int = 20
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    li_hidden: tuple = (256, 256)
    ne_hidden: tuple = (128, 64)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.ne_steps_per_li_step < 1:
            raise ValueError("ne_steps_per_li_step must be >= 1")


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


class _Prepared:
    """Dataset tensors shared by every training step.

    The sparse maps s_flat and their masks m_flat come from one scatter over
    all samples (obsmap.build_sample_maps), bit-identical to building each
    sample's map on its own.
    """

    def __init__(self, dataset, w):
        self.s_flat, self.m_flat = build_sample_maps(
            [samples for samples, _, _ in dataset], w)
        self.n_gt = np.stack([np.asarray(n, dtype=float) for _, n, _ in dataset])
        self.d_gt = [d for _, _, d in dataset]
        self.d_gt_flat = np.stack([d.values.ravel() for d in self.d_gt])
        self.d_gt_pooled_flat = _pool_quarter(self.d_gt_flat, w)
        self.gt_axes = axis_from_normal(self.n_gt)
        self.w = w
        self.count = len(dataset)


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
    x_li = np.concatenate([prep.s_flat[idx], prep.m_flat[idx]], axis=1)
    d_flat = li.forward(x_li)
    x_ne = np.concatenate([prep.s_flat[idx], d_flat], axis=1)
    u, cache = ne.forward_trace(x_ne)
    batch = len(idx)
    n, flip, norms = _normalize_training(u)
    n_gt = prep.n_gt[idx]
    angles, recon_g = _recon_terms_batch(n, n_gt)

    refl = reflections(prep.w, axis_from_normal(n))
    terms = SymmetryTerms(prep.d_gt_flat[idx], *refl, weights,
                          pooled=prep.d_gt_pooled_flat[idx])
    d_sym, d_asym = terms.angle_grads()
    dpsi = weights.lambda_s * d_sym + weights.lambda_a * d_asym
    g_n = dpsi[:, None] * dpsi_dn(n)
    g_tan = g_n - n * np.sum(n * g_n, axis=1)[:, None] + recon_g
    grad_u = flip[:, None] * g_tan / norms[:, None]
    total = float(np.mean(angles + weights.lambda_s * terms.sym
                          + weights.lambda_a * terms.asym))
    param_grads, _ = ne.backward(cache, grad_u / batch, want_input_grad=False)
    return total, param_grads


def li_objective_and_grads(li: MlpModel, ne: MlpModel, prep: _Prepared, idx,
                           weights: LossWeights = DEFAULT_WEIGHTS):
    """Mean interpolation loss over a batch and its gradients for f's parameters.

    The estimation model is frozen but the angle term still backpropagates
    through it into the generated map; the symmetry terms are evaluated on
    the generated map about the ground-truth normal's axis.
    """
    x_li = np.concatenate([prep.s_flat[idx], prep.m_flat[idx]], axis=1)
    d_flat, cache_li = li.forward_trace(x_li)
    x_ne = np.concatenate([prep.s_flat[idx], d_flat], axis=1)
    u, cache_ne = ne.forward_trace(x_ne)
    n, flip, norms = _normalize_training(u)
    n_gt = prep.n_gt[idx]
    angles, recon_g = _recon_terms_batch(n, n_gt)
    grad_u = flip[:, None] * recon_g / norms[:, None]

    batch = len(idx)
    w = prep.w
    diff = d_flat - prep.d_gt_flat[idx]
    m_s = prep.m_flat[idx]
    l1 = np.abs(diff).sum(axis=1)
    masked = np.abs(m_s * diff).sum(axis=1)

    terms = SymmetryTerms(d_flat, *reflections(w, prep.gt_axes[idx]), weights)
    g_sym, g_asym = terms.value_grads()
    s = _sign(diff)
    grad_d = s + m_s * s + weights.lambda_s * g_sym + weights.lambda_a * g_asym
    _, grad_x_ne = ne.backward(cache_ne, grad_u, want_param_grads=False)
    grad_d = grad_d + grad_x_ne[:, w * w:]
    total = float(np.mean(angles + l1 + masked + weights.lambda_s * terms.sym
                          + weights.lambda_a * terms.asym))
    param_grads, _ = li.backward(cache_li, grad_d / batch,
                                 want_input_grad=False)
    return total, param_grads


def ne_objective(li, ne, prep, idx, weights=DEFAULT_WEIGHTS):
    """Loss-only estimation objective, evaluated per sample through the
    public loss functions (the independent route for gradient checks)."""
    from .losses import ne_total_loss

    x_li = np.concatenate([prep.s_flat[idx], prep.m_flat[idx]], axis=1)
    d_flat = li.forward(x_li)
    x_ne = np.concatenate([prep.s_flat[idx], d_flat], axis=1)
    n, _, _ = _normalize_training(ne.forward(x_ne))
    total = 0.0
    for j, i in enumerate(idx):
        total += ne_total_loss(n[j], prep.n_gt[i], prep.d_gt[i], weights)
    return total / len(idx)


def li_objective(li, ne, prep, idx, weights=DEFAULT_WEIGHTS):
    """Loss-only interpolation objective, evaluated per sample through the
    public loss functions (the independent route for gradient checks)."""
    from .losses import li_total_loss

    x_li = np.concatenate([prep.s_flat[idx], prep.m_flat[idx]], axis=1)
    d_flat = li.forward(x_li)
    x_ne = np.concatenate([prep.s_flat[idx], d_flat], axis=1)
    n, _, _ = _normalize_training(ne.forward(x_ne))
    w = prep.w
    total = 0.0
    for j, i in enumerate(idx):
        pred = ObservationMap(d_flat[j].reshape(w, w),
                              np.ones((w, w), np.uint8))
        m_s = prep.m_flat[i].reshape(w, w)
        total += li_total_loss(n[j], prep.n_gt[i], pred, prep.d_gt[i], m_s, weights)
    return total / len(idx)


def train_alternating(dataset, cfg: TrainConfig):
    """Alternating Adam optimization of the two models.

    Repeats blocks of `ne_steps_per_li_step` estimation updates followed by
    one interpolation update, drawing minibatches from a reshuffled pass over
    the dataset each epoch.  Fully deterministic for a fixed seed.  Raises
    DivergenceError (with the step index) if a batch loss goes non-finite.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    w = dataset[0][2].width
    prep = _Prepared(dataset, w)
    rng = np.random.default_rng(cfg.seed)
    li = new_li_model(w, rng, cfg.li_hidden)
    ne = new_ne_model(w, rng, cfg.ne_hidden)
    adam_li = AdamState.for_model(li)
    adam_ne = AdamState.for_model(ne)
    trace = TrainTrace()
    order = np.arange(prep.count)
    block = cfg.ne_steps_per_li_step + 1
    step = 0
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        ne_losses = []
        li_losses = []
        for start in range(0, prep.count, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if step % block < cfg.ne_steps_per_li_step:
                loss, grads = ne_objective_and_grads(li, ne, prep, idx, cfg.weights)
                adam_step(ne, grads, adam_ne, cfg.learning_rate, cfg.beta1, cfg.beta2)
                trace.step_kinds.append("ne")
                ne_losses.append(loss)
            else:
                loss, grads = li_objective_and_grads(li, ne, prep, idx, cfg.weights)
                adam_step(li, grads, adam_li, cfg.learning_rate, cfg.beta1, cfg.beta2)
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
                      max_zenith_deg=75.0, min_nz=0.1, dense_lights=1000,
                      draws_per_point=1):
    """Build (samples, normal, dense map) triples from random sphere points.

    Normals are drawn uniformly over the unit disk (matching the pixel
    distribution of an orthographic sphere); the reflectance of each point is
    Lambertian or Blinn-Phong with random parameters.  Each point contributes
    `draws_per_point` independent sparse light sets sharing one dense
    reference map, which diversifies the sparsity patterns seen per surface
    sample.  Draws whose lights all land in attached shadow are redrawn.
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
            lights = sample_hemisphere_lights(lights_per_point, max_zenith_deg, rng)
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
