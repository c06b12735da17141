"""Shared test utilities: margin-aware sampling for finite-difference oracles.

L1 losses are nonsmooth exactly where a cell equals its mirrored read, and
the subgradient convention there legitimately disagrees with a finite
difference.  Finite-difference comparisons therefore sample instances with a
margin between every relevant residual and zero, rejecting the measure-zero
neighborhoods where the oracle itself is invalid.
"""

import numpy as np

from sparseps.geometry import normalize
from sparseps.mlp import DenseLayer, MlpModel
from sparseps.obsmap import ObservationMap, ReflectionPlan, axis_from_normal


def random_unit_normal(rng, min_nz=0.15):
    while True:
        v = rng.normal(size=3)
        v[2] = abs(v[2])
        n = normalize(v)
        if n[2] >= min_nz and np.hypot(n[0], n[1]) > 1e-3:
            return n


def _mirror_margins_ok(values, n, margin):
    w = values.shape[0]
    plan = ReflectionPlan(w, axis_from_normal(n))
    diff = values - plan.gather(values)
    if np.abs(diff).min() <= margin:
        return False
    if w % 2 == 0 and w >= 4:
        pooled = values.reshape(w // 2, 2, w // 2, 2).mean(axis=(1, 3))
        half_plan = ReflectionPlan(w // 2, axis_from_normal(n))
        pdiff = pooled - half_plan.gather(pooled)
        if np.abs(pdiff).min() <= margin:
            return False
    return True


def sample_margin_instance(rng, w=32, margin=1e-3, need_reference=False):
    """Random (map, normal[, reference map, mask]) away from all L1 ties."""
    while True:
        n = random_unit_normal(rng)
        values = rng.uniform(0.0, 1.0, size=(w, w))
        if not _mirror_margins_ok(values, n, margin):
            continue
        obs = ObservationMap(values, np.ones((w, w), np.uint8))
        if not need_reference:
            return obs, n
        ref = rng.uniform(0.0, 1.0, size=(w, w))
        if np.abs(values - ref).min() <= margin:
            continue
        mask = (rng.uniform(size=(w, w)) < 0.3).astype(np.uint8)
        return obs, n, ObservationMap(ref, np.ones((w, w), np.uint8)), mask


def sample_angle_margin_instance(rng, w=16, margin=1e-3, frac_margin=1e-4):
    """Instance where the axis-angle gradient is smooth: residual margins hold
    and no reflected position sits on a bilinear cell boundary."""
    while True:
        n = random_unit_normal(rng)
        values = rng.uniform(0.0, 1.0, size=(w, w))
        if not _mirror_margins_ok(values, n, margin):
            continue
        ok = True
        for width in (w, w // 2):
            plan = ReflectionPlan(width, axis_from_normal(n))
            for pos in (plan.pos_x, plan.pos_y):
                frac = np.abs(pos - np.rint(pos))
                if frac.min() <= frac_margin:
                    ok = False
        if ok:
            return ObservationMap(values, np.ones((w, w), np.uint8)), n


def symmetric_map(w, rng=None, axis="vertical"):
    """A map exactly invariant under the axis-aligned mirror."""
    if rng is None:
        base = np.full((w, w), 0.5)
    else:
        base = rng.uniform(0.0, 1.0, size=(w, w))
    if axis == "vertical":        # normal (0, 1, 0): column flip
        values = (base + base[:, ::-1]) / 2.0
    else:                          # normal (1, 0, 0) or (0, 0, 1): row flip
        values = (base + base[::-1, :]) / 2.0
    return ObservationMap(values, np.ones((w, w), np.uint8))


# ---------------------------------------------------------------------------
# Per-pixel references for the batched evaluation path
# ---------------------------------------------------------------------------

def reference_observation_map(lights, irradiance, w):
    """One point's map built cell by cell: (values, mask), or None when
    every irradiance is zero."""
    peak = float(np.max(irradiance))
    if peak <= 0.0:
        return None
    cols = np.clip(np.floor(w * (lights[:, 0] + 1.0) / 2.0), 0, w - 1).astype(int)
    rows = np.clip(np.floor(w * (lights[:, 1] + 1.0) / 2.0), 0, w - 1).astype(int)
    sums = np.zeros((w, w))
    counts = np.zeros((w, w))
    np.add.at(sums, (rows, cols), irradiance)
    np.add.at(counts, (rows, cols), 1.0)
    occupied = counts > 0
    values = np.zeros((w, w))
    values[occupied] = sums[occupied] / counts[occupied] / peak
    return values, occupied.astype(np.uint8)


def _parent_cell_averages(cell, irradiance, size):
    """Dense cell averages as obsmap computed them before it kept only the
    occupied cells: every cell summed and divided by max(count, 1)."""
    if not (np.isfinite(irradiance).all() and (irradiance >= 0).all()):
        raise ValueError("irradiance must be finite and nonnegative")
    values = np.zeros((size,) + irradiance.shape[1:])
    np.add.at(values, cell, irradiance)
    counts = np.bincount(cell, minlength=size)
    values /= np.maximum(counts, 1).reshape((size,) + (1,) * (irradiance.ndim - 1))
    return values, counts


def _parent_cells(lights, w):
    lights = np.asarray(lights, dtype=float)
    grid = np.floor(w * (lights[:, :2] + 1.0) / 2.0)
    col, row = np.minimum(np.maximum(grid, 0), w - 1).astype(int).T
    return row * w + col


def parent_observation_maps(lights, irradiance_matrix, w):
    """build_observation_maps through dense (w*w, m) cell averages, as
    before the maps were scattered from their occupied cells."""
    irr = np.asarray(irradiance_matrix, dtype=float)
    values, counts = _parent_cell_averages(_parent_cells(lights, w), irr, w * w)
    peak = irr.max(axis=0)
    ok = peak > 0.0
    values /= np.where(ok, peak, 1.0)
    mask = (counts > 0).astype(np.uint8).reshape(w, w)
    return values.T.reshape(-1, w, w), mask, ok


def parent_sample_maps(samples, w):
    """build_sample_maps dividing every cell of every map, as before only
    the occupied cells were divided."""
    sizes = [len(s) for s in samples]
    irr = np.concatenate([s.irradiance for s in samples])
    cell = _parent_cells(np.concatenate([s.lights for s in samples]), w)
    cell += np.repeat(np.arange(len(samples)) * (w * w), sizes)
    values, counts = _parent_cell_averages(cell, irr, len(samples) * w * w)
    peak = np.maximum.reduceat(irr, np.cumsum([0] + sizes[:-1]))
    values = values.reshape(len(samples), w * w)
    values /= peak[:, None]
    return values, (counts > 0).astype(float).reshape(values.shape)


def reference_inpaint(values, known, n_hint=None, mirror_step=True):
    """One map completed by whole-grid passes: nearest-neighbour mirror about
    axis_from_normal(n_hint), 3x3 masked-mean diffusion over the padded grid,
    clip, known cells restored.  A map with no known cell stays zero."""
    w = values.shape[0]
    known = known.astype(bool)
    current = values.copy()
    current[~known] = 0.0
    filled = known.copy()
    if mirror_step and n_hint is not None:
        plan = ReflectionPlan(w, axis_from_normal(n_hint))
        cx = np.rint(plan.pos_x).astype(int)
        cy = np.rint(plan.pos_y).astype(int)
        inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
        mirrored_vals = np.zeros(w * w)
        mirrored_known = np.zeros(w * w, dtype=bool)
        mirrored_vals[inside] = current[cy[inside], cx[inside]]
        mirrored_known[inside] = known[cy[inside], cx[inside]]
        take = ~filled & mirrored_known.reshape(w, w)
        current[take] = mirrored_vals.reshape(w, w)[take]
        filled |= take
    while not filled.all():
        padded_v = np.pad(current * filled, 1)
        padded_m = np.pad(filled.astype(float), 1)
        sums = np.zeros_like(current)
        counts = np.zeros_like(current)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                sums += padded_v[dr:dr + w, dc:dc + w]
                counts += padded_m[dr:dr + w, dc:dc + w]
        grow = ~filled & (counts > 0)
        if not grow.any():
            break
        current[grow] = sums[grow] / counts[grow]
        filled |= grow
    out = np.clip(current, 0.0, 1.0)
    out[known] = values[known]
    return out


def reference_ls_normal(lights, irradiance):
    """LS fit of one pixel: (normal, albedo), or None when the fit vanishes."""
    b, *_ = np.linalg.lstsq(lights, irradiance, rcond=None)
    albedo = float(np.linalg.norm(b))
    if albedo == 0.0:
        return None
    n = b / albedo
    return (-n if n[2] < 0 else n), albedo


def reference_inpaint_ls(lights, irradiance_matrix, w, mirror_step=True):
    """InpaintLsSolver pixel by pixel: bootstrap LS, map, inpaint, refit."""
    from sparseps.obsmap import map_cell_lights

    m = irradiance_matrix.shape[1]
    normals = np.zeros((m, 3))
    valid = np.zeros(m, dtype=bool)
    cell_lights, rows, cols = map_cell_lights(w)
    for p in range(m):
        boot = reference_ls_normal(lights, irradiance_matrix[:, p])
        sparse = reference_observation_map(lights, irradiance_matrix[:, p], w)
        if boot is None or sparse is None:
            continue
        dense = reference_inpaint(*sparse, n_hint=boot[0],
                                  mirror_step=mirror_step)
        fit = reference_ls_normal(cell_lights, dense[rows, cols])
        if fit is not None:
            normals[p], valid[p] = fit[0], True
    return normals, valid


def reference_model_solver(li, ne, lights, irradiance_matrix, w):
    """ModelSolver with maps built pixel by pixel, then f and g on the
    stacked maps."""
    m = irradiance_matrix.shape[1]
    normals = np.zeros((m, 3))
    valid = np.zeros(m, dtype=bool)
    s_rows, m_rows = [], []
    for p in range(m):
        sparse = reference_observation_map(lights, irradiance_matrix[:, p], w)
        if sparse is not None:
            s_rows.append(sparse[0].ravel())
            m_rows.append(sparse[1].ravel().astype(float))
            valid[p] = True
    s = np.stack(s_rows)
    d = li.forward(np.concatenate([s, np.stack(m_rows)], axis=1))
    u = ne.forward(np.concatenate([s, d], axis=1))
    norms = np.linalg.norm(u, axis=1)
    idx = np.nonzero(valid)[0]
    for row, p in enumerate(idx):
        if norms[row] == 0:
            valid[p] = False
            continue
        n = u[row] / norms[row]
        normals[p] = -n if n[2] < 0 else n
    return normals, valid


def restrict_inputs(model, cols):
    """The model on the input columns `cols` alone.

    The first layer keeps weights[:, cols] and the later layers are shared.
    On inputs that are zero outside cols the result computes the same
    function, without the first layer's products with zeros; its sums skip
    the zero terms, so outputs may differ in the last ulps.
    """
    first = model.layers[0]
    return MlpModel([DenseLayer(first.weights[:, cols], first.bias,
                                first.activation), *model.layers[1:]])


def criterion_8_sphere(res=32):
    """The criterion-8 glossy sphere, res x res, under its 300-light pool."""
    from sparseps.geometry import sample_hemisphere_lights
    from sparseps.render import BlinnPhong, render_sphere

    pool = sample_hemisphere_lights(300, 75.0, np.random.default_rng(202))
    return render_sphere(res, BlinnPhong(kd=0.15, ks=1.0, shininess=35.0), pool)


def criterion_8_trial(seed=7, n_lights=10):
    """One light draw on the 32x32 criterion-8 sphere: (lights, irradiance
    (n_lights, pixels), true normals (pixels, 3))."""
    scene = criterion_8_sphere()
    idx = np.random.default_rng(seed).choice(300, size=n_lights, replace=False)
    return (scene.lights[idx], scene.images[idx][:, scene.mask],
            scene.normals[scene.mask])


# ---------------------------------------------------------------------------
# References for the training step
# ---------------------------------------------------------------------------

class ClippedReflection:
    """The bilinear mirror with clipped corner indices and masked weights
    (no zero border): what BatchReflection computed before it read through
    a zero-bordered copy.  Same (w, axes (B, 2)) signature and methods."""

    def __init__(self, w, axes):
        self.w = w
        self.axes = np.asarray(axes, dtype=float)
        self.batch = batch = self.axes.shape[0]
        c0 = (w - 1) / 2.0
        idx = np.arange(w, dtype=float)
        xs, ys = np.meshgrid(idx - c0, idx - c0)
        px, py = xs.ravel(), ys.ravel()
        ax, ay = self.axes[:, 0:1], self.axes[:, 1:2]
        cos2 = ax * ax - ay * ay
        sin2 = 2.0 * ax * ay
        self.pos_x = cos2 * px + sin2 * py + c0
        self.pos_y = sin2 * px - cos2 * py + c0
        self.dpos_x = 2.0 * (-sin2 * px + cos2 * py)
        self.dpos_y = 2.0 * (cos2 * px + sin2 * py)
        x0 = np.floor(self.pos_x).astype(np.int64)
        y0 = np.floor(self.pos_y).astype(np.int64)
        self.fx = self.pos_x - x0
        self.fy = self.pos_y - y0
        fx, fy = self.fx, self.fy
        base = (np.arange(batch, dtype=np.int64) * (w * w))[:, None]
        self.corners = []            # (flat index, masked weight, inside)
        for dy, dx, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                            (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
            cy, cx = y0 + dy, x0 + dx
            inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
            flat = base + np.clip(cy, 0, w - 1) * w + np.clip(cx, 0, w - 1)
            self.corners.append((flat, np.where(inside, wgt, 0.0), inside))

    def gather(self, values):
        flat = values.reshape(-1)
        out = np.zeros((self.batch, self.w * self.w))
        for idx, wgt, _ in self.corners:
            out += wgt * flat.take(idx)
        return out

    def adjoint(self, grids):
        size = self.batch * self.w * self.w
        out = np.zeros(size)
        for idx, wgt, _ in self.corners:
            out += np.bincount(idx.ravel(), weights=(wgt * grids).ravel(),
                               minlength=size)
        return out.reshape(self.batch, -1)

    def gather_nearest(self, grids):
        w = self.w
        cx = np.rint(self.pos_x).astype(int)
        cy = np.rint(self.pos_y).astype(int)
        inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
        src = grids.reshape(self.batch, w, w)
        rows = np.broadcast_to(np.arange(self.batch)[:, None], cx.shape)
        out = np.zeros(cx.shape, dtype=grids.dtype)
        out[inside] = src[rows[inside], cy[inside], cx[inside]]
        return out

    def angle_derivative_of_gather(self, values):
        flat = values.reshape(-1)
        v00, v01, v10, v11 = (np.where(inside, flat.take(idx), 0.0)
                              for idx, _, inside in self.corners)
        dbdx = (1 - self.fy) * (v01 - v00) + self.fy * (v11 - v10)
        dbdy = (1 - self.fx) * (v10 - v00) + self.fx * (v11 - v01)
        return dbdx * self.dpos_x + dbdy * self.dpos_y


def reference_sample_maps(samples, w):
    """Training maps built one sample at a time: (values, mask), each
    (len(samples), w*w) float.  Raises DegenerateSamplesError for an
    all-zero sample."""
    from sparseps.errors import DegenerateSamplesError

    values, masks = [], []
    for s in samples:
        built = reference_observation_map(s.lights, s.irradiance, w)
        if built is None:
            raise DegenerateSamplesError("all sample irradiance values are zero")
        values.append(built[0].ravel())
        masks.append(built[1].ravel().astype(float))
    return np.stack(values), np.stack(masks)


def reference_adam_step(model, grads, state, lr, beta1=0.9, beta2=0.999,
                        eps=1e-8):
    """Adam written as the textbook expression, with m_hat and v_hat."""
    state.step += 1
    correct1 = 1.0 - beta1 ** state.step
    correct2 = 1.0 - beta2 ** state.step
    for i, layer in enumerate(model.layers):
        for j, param in enumerate((layer.weights, layer.bias)):
            grad, m, v = grads[i][j], state.m[i][j], state.v[i][j]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / correct1
            v_hat = v / correct2
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def break_checkpoint(path, case):
    """Damage a saved checkpoint in one of three ways: cut inside the
    header ("truncated_header"), give layer 0 activation code 7
    ("unknown_activation"), or drop the last bytes ("short_payload")."""
    raw = path.read_bytes()
    if case == "truncated_header":
        raw = raw[:10]
    elif case == "unknown_activation":
        raw = raw[:20] + b"\x07" + raw[21:]      # 4 magic + 8 header + 8 shape
    elif case == "short_payload":
        raw = raw[:-3]
    else:
        raise ValueError(f"unknown case {case!r}")
    path.write_bytes(raw)
