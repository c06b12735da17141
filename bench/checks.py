"""Reference computations the benchmark checks sparseps outputs against.

Everything here is recomputed from the documented definitions with plain
numpy and never calls into sparseps, so a fault in the program cannot hide in
its own reference.  Each check returns a count or a list of mismatches rather
than raising, so the benchmark can count failed operations.
"""

from __future__ import annotations

import numpy as np

# A normal counts as reproduced when it lies within this angle of the
# reference.  The references differ from the program only in rounding (normal
# equations instead of lstsq, another summation order), which stays below
# 1e-10 rad here; a planted error of 1e-3 rad is far outside.
NORMAL_TOL_RAD = 1e-8
UNIT_TOL = 1e-9
# The program scores against the scene normals read back from float32 PFM;
# the reference uses the analytic sphere.  The rounding moves a trial mean by
# well under 1e-4 deg on these scenes.
MEAN_ERR_TOL_DEG = 2e-3
# Finite differences of the per-sample objectives against the batched
# gradients: relative tolerance, and an absolute floor for tiny coordinates.
GRAD_REL_TOL = 1e-3
GRAD_ABS_TOL = 1e-9


def sphere_normals(res):
    """Analytic normals of the orthographic unit sphere on render_sphere's grid.

    Pixel (row, col) sits at x = 2 col / res - 1, y = 2 row / res - 1; returns
    (normals (res, res, 3), mask (res, res) bool).
    """
    x = 2.0 * np.arange(res) / res - 1.0
    xx, yy = np.meshgrid(x, x)
    rr = xx * xx + yy * yy
    mask = rr < 1.0
    normals = np.zeros((res, res, 3))
    normals[mask] = np.column_stack(
        [xx[mask], yy[mask], np.sqrt(1.0 - rr[mask])])
    return normals, mask


def angle_rad(a, b):
    """Row-wise angle between vectors, well conditioned near 0 and pi."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    return np.arctan2(cross, np.sum(a * b, axis=1))


def normalize_flip(u):
    """Rows scaled to unit length and flipped to z >= 0; zero rows stay zero.

    Returns (normals, nonzero).
    """
    norms = np.linalg.norm(u, axis=1)
    ok = norms > 0
    n = np.zeros_like(u)
    n[ok] = u[ok] / norms[ok, None]
    n[n[:, 2] < 0] *= -1.0
    return n, ok


def ls_reference(lights, irr):
    """Lambertian fit per pixel from the normal equations (L^T L) b = L^T i.

    lights (k, 3), irr (k, m) -> (normals (m, 3), valid (m,)).
    """
    lights = np.asarray(lights, dtype=float)
    b = np.linalg.solve(lights.T @ lights, lights.T @ np.asarray(irr, float))
    return normalize_flip(b.T)


def observation_maps(lights, irr, w):
    """Sparse maps by floor projection, per-cell mean and division by the peak.

    A light lands in column floor(w (x + 1) / 2) and row floor(w (y + 1) / 2),
    clamped to the grid.  Returns (values (m, w, w), mask (w, w) bool,
    ok (m,)) where ok is False for pixels whose every sample is zero.
    """
    lights = np.asarray(lights, dtype=float)
    irr = np.asarray(irr, dtype=float)
    cols = np.clip(np.floor(w * (lights[:, 0] + 1.0) / 2.0), 0, w - 1).astype(int)
    rows = np.clip(np.floor(w * (lights[:, 1] + 1.0) / 2.0), 0, w - 1).astype(int)
    m = irr.shape[1]
    sums = np.zeros((m, w, w))
    counts = np.zeros((w, w))
    for j in range(lights.shape[0]):
        sums[:, rows[j], cols[j]] += irr[j]
        counts[rows[j], cols[j]] += 1.0
    mask = counts > 0
    peak = irr.max(axis=0)
    ok = peak > 0
    values = np.zeros((m, w, w))
    values[:, mask] = sums[:, mask] / counts[mask]
    values[ok] /= peak[ok, None, None]
    return values, mask, ok


def mlp_reference(layers, x):
    """Plain dense layers: z = x W^T + b, then relu, sigmoid or identity."""
    a = x
    for weights, bias, activation in layers:
        z = a @ weights.T + bias
        if activation == "relu":
            a = np.maximum(z, 0.0)
        elif activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        elif activation == "linear":
            a = z
        else:
            raise ValueError(f"unknown activation {activation!r}")
    return a


def trained_reference(li_layers, ne_layers, lights, irr, w):
    """f then g on rebuilt maps: f([S, mask]) = D, g([S, D]) = raw normal."""
    values, mask, ok = observation_maps(lights, irr, w)
    s = values.reshape(values.shape[0], w * w)
    occupancy = np.broadcast_to(mask.ravel().astype(float), s.shape)
    dense = mlp_reference(li_layers, np.concatenate([s, occupancy], axis=1))
    raw = mlp_reference(ne_layers, np.concatenate([s, dense], axis=1))
    normals, nonzero = normalize_flip(raw)
    return normals, ok & nonzero


def _cell_centres(w):
    """Light direction at each in-disk cell centre, with its row and column."""
    x = (2.0 * np.arange(w) + 1.0) / w - 1.0
    xx, yy = np.meshgrid(x, x)
    rr = xx * xx + yy * yy
    rows, cols = np.nonzero(rr < 1.0)
    lights = np.column_stack(
        [xx[rows, cols], yy[rows, cols], np.sqrt(1.0 - rr[rows, cols])])
    return lights, rows, cols


def inpaint_reference(lights, irr_col, w):
    """The documented inpaint-then-refit route for one pixel.

    1. Mirror known cells nearest-neighbour about the bootstrap LS axis.
    2. Fill the remaining cells by 3x3 masked-mean diffusion passes.
    3. Clip to [0, 1] and restore the known cells.
    4. Refit LS on the in-disk cell centres.
    Returns (normal (3,), valid).
    """
    irr_col = np.asarray(irr_col, dtype=float)
    boot, boot_ok = ls_reference(lights, irr_col[:, None])
    values, known, ok = observation_maps(lights, irr_col[:, None], w)
    if not (boot_ok[0] and ok[0]):
        return np.zeros(3), False
    sparse = values[0]
    planar = boot[0, :2]
    norm = np.linalg.norm(planar)
    ax, ay = (1.0, 0.0) if norm <= 1e-6 else planar / norm
    # Mirror about the axis: R = 2 a a^T - I on centred cell coordinates.
    c0 = (w - 1) / 2.0
    idx = np.arange(w, dtype=float) - c0
    px, py = np.meshgrid(idx, idx)
    cos2, sin2 = ax * ax - ay * ay, 2.0 * ax * ay
    mx = np.rint(cos2 * px + sin2 * py + c0).astype(int)
    my = np.rint(sin2 * px - cos2 * py + c0).astype(int)
    inside = (mx >= 0) & (mx < w) & (my >= 0) & (my < w)
    mirrored_known = np.zeros((w, w), dtype=bool)
    mirrored_known[inside] = known[my[inside], mx[inside]]
    take = ~known & mirrored_known
    filled_values = np.where(known, sparse, 0.0)
    filled_values[take] = sparse[my[take], mx[take]]
    filled = known | take
    # Diffusion: every empty cell with a filled 3x3 neighbour takes their mean.
    while not filled.all():
        border_v = np.zeros((w + 2, w + 2))
        border_m = np.zeros((w + 2, w + 2))
        border_v[1:-1, 1:-1] = filled_values * filled
        border_m[1:-1, 1:-1] = filled
        sums = np.zeros((w, w))
        counts = np.zeros((w, w))
        for dr in range(3):
            for dc in range(3):
                sums += border_v[dr:dr + w, dc:dc + w]
                counts += border_m[dr:dr + w, dc:dc + w]
        grow = ~filled & (counts > 0)
        filled_values[grow] = sums[grow] / counts[grow]
        filled |= grow
    dense = np.clip(filled_values, 0.0, 1.0)
    dense[known] = sparse[known]
    cell_lights, rows, cols = _cell_centres(w)
    normals, valid = ls_reference(cell_lights, dense[rows, cols][:, None])
    return normals[0], bool(valid[0])


def unit_upper_violations(normals, valid):
    """Number of valid normals that are not unit length or point below z = 0."""
    n = normals[valid]
    bad = (np.abs(np.linalg.norm(n, axis=1) - 1.0) > UNIT_TOL) | (n[:, 2] < 0)
    return int(bad.sum())


def mean_error_deg(normals, valid, truth):
    """Mean angle in degrees between the valid normals and the true ones."""
    return float(np.degrees(angle_rad(normals[valid], truth[valid])).mean())


def normal_mismatches(normals, valid, ref_normals, ref_valid):
    """Pixels where validity differs or the normals differ by NORMAL_TOL_RAD."""
    both = valid & ref_valid
    far = np.zeros(valid.shape, dtype=bool)
    far[both] = angle_rad(normals[both], ref_normals[both]) > NORMAL_TOL_RAD
    return int(((valid != ref_valid) | far).sum())


def gradient_mismatches(objective, params, grads, coords, h=1e-6):
    """Compare batched gradients with central differences of `objective`.

    params and grads are matching lists of arrays; coords lists (array index,
    flat index) pairs.  Each coordinate is probed at -h, 0 and +h.  A relu or
    L1 kink anywhere within h makes the backward and forward differences
    disagree by the slope jump times its share of the step, and moves the
    central difference by at most half of that disagreement.  So the central
    difference is compared only where the one-sided differences agree within
    the tolerance; elsewhere the probe is repeated at h / 10 and h / 100, which
    leave a kink at a fixed distance outside, and a coordinate that still has
    one within h / 100 is skipped.  Returns (mismatches, checked, skipped).
    """
    mismatches, checked, skipped = [], 0, 0
    for pi, k in coords:
        flat = params[pi].reshape(-1)
        if not np.shares_memory(flat, params[pi]):
            raise ValueError("parameter arrays must be contiguous")
        orig = flat[k]
        centre = objective()
        fd = None
        for step in (h, h / 10.0, h / 100.0):
            flat[k] = orig + step
            up = objective()
            flat[k] = orig - step
            down = objective()
            flat[k] = orig
            central = (up - down) / (2.0 * step)
            one_sided_gap = abs((up - centre) - (centre - down)) / step
            if one_sided_gap <= GRAD_REL_TOL * abs(central) + GRAD_ABS_TOL:
                fd = central
                break
        if fd is None:
            skipped += 1
            continue
        checked += 1
        g = float(grads[pi].reshape(-1)[k])
        if abs(g - fd) > GRAD_REL_TOL * abs(fd) + GRAD_ABS_TOL:
            mismatches.append((pi, k, g, fd))
    return mismatches, checked, skipped
