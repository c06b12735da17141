"""Observation maps: fixed-size grids of irradiance indexed by light direction.

A light l with l.z >= 0 projects orthographically onto the x-y plane; the
unit disk of projected directions is binned into a w x w grid, so every
surface point's multi-light measurements become a map of shape (w, w) plus
an occupancy mask.  The module also provides the two operators the symmetry
losses are built on: mirroring a map about the axis projected by a surface
normal, and stride-2 average pooling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSamplesError, HemisphereError

OBSM_MAGIC = b"OBSM"


@dataclass
class ObservationMap:
    """Square grid of normalized irradiance values plus an occupancy mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=np.uint8)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("values must be a square 2D grid")
        if self.mask.shape != self.values.shape:
            raise ValueError("mask shape must match values shape")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("values must be finite and nonnegative")

    @property
    def width(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "ObservationMap":
        return ObservationMap(self.values.copy(), self.mask.copy())


@dataclass
class PixelSamples:
    """All observations of one surface point: light directions and irradiance."""

    lights: np.ndarray       # (k, 3) unit directions, z >= 0
    irradiance: np.ndarray   # (k,) nonnegative
    normal: Optional[np.ndarray] = None  # ground truth when known

    def __post_init__(self):
        self.lights = np.asarray(self.lights, dtype=float)
        self.irradiance = np.asarray(self.irradiance, dtype=float)
        if self.lights.ndim != 2 or self.lights.shape[1] != 3:
            raise ValueError("lights must have shape (k, 3)")
        if self.irradiance.shape != (self.lights.shape[0],):
            raise ValueError("irradiance must have shape (k,)")
        if self.lights.shape[0] < 1:
            raise ValueError("at least one sample is required")
        if not np.all(np.isfinite(self.irradiance)) or np.any(self.irradiance < 0):
            raise ValueError("irradiance must be finite and nonnegative")
        if self.normal is not None:
            self.normal = np.asarray(self.normal, dtype=float)

    def __len__(self) -> int:
        return self.lights.shape[0]


def project_light(l, w):
    """Grid cell (row, col) of a light direction under orthographic projection.

    col = clamp(floor(w * (l.x + 1) / 2), 0, w - 1) and likewise row from l.y,
    so the zenith (0, 0, 1) lands in the center cell.  Raises HemisphereError
    when l.z < 0.
    """
    l = np.asarray(l, dtype=float)
    if l[2] < 0:
        raise HemisphereError(f"light z component is negative: {l[2]}")
    col = int(np.clip(np.floor(w * (l[0] + 1.0) / 2.0), 0, w - 1))
    row = int(np.clip(np.floor(w * (l[1] + 1.0) / 2.0), 0, w - 1))
    return row, col


def _project_lights(lights, w):
    """Vectorized projection; returns each light's flat cell index row * w + col."""
    lights = np.asarray(lights, dtype=float)
    if (lights[:, 2] < 0).any():
        raise HemisphereError("light list contains a direction below the horizon")
    # Both coordinates at once: the per-sample training maps pay for every call.
    grid = np.floor(w * (lights[:, :2] + 1.0) / 2.0)
    col, row = np.minimum(np.maximum(grid, 0), w - 1).astype(int).T
    return row * w + col


def build_observation_maps(lights, irradiance_matrix, w):
    """Scatter the samples of many points sharing one light set into w x w maps.

    irradiance_matrix has shape (k, m), one column per point.  Samples landing
    in the same cell are averaged (summed in light order), then each map is
    divided by its column's peak so values lie in [0, 1].  Returns
    (values (m, w, w), mask (w, w) uint8, ok (m,)): the mask marks the
    occupied cells, the same for every column, and ok is False for all-zero
    columns, whose maps stay zero.
    """
    irr = np.asarray(irradiance_matrix, dtype=float)
    if not (np.isfinite(irr).all() and (irr >= 0).all()):
        raise ValueError("irradiance must be finite and nonnegative")
    cell = _project_lights(lights, w)
    counts = np.bincount(cell, minlength=w * w)
    peak = irr.max(axis=0)
    ok = peak > 0.0
    values = np.zeros((w * w, irr.shape[1]))
    np.add.at(values, cell, irr)
    # Empty cells hold 0 / 1 / peak = 0.
    values /= np.maximum(counts, 1)[:, None]
    values /= np.where(ok, peak, 1.0)
    mask = (counts > 0).astype(np.uint8).reshape(w, w)
    return values.T.reshape(-1, w, w), mask, ok


def build_observation_map(samples: PixelSamples, w: int) -> ObservationMap:
    """One point's map: build_observation_maps on a single column.

    Raises DegenerateSamplesError when every irradiance is zero.
    """
    values, mask, ok = build_observation_maps(
        samples.lights, samples.irradiance[:, None], w)
    if not ok[0]:
        raise DegenerateSamplesError("all sample irradiance values are zero")
    return ObservationMap(values[0], mask)


def map_cell_lights(w):
    """Light direction at each grid cell center inside the unit disk.

    Inverse of the projection used by build_observation_map.  Returns
    (lights, rows, cols) where lights has shape (m, 3) and rows/cols give the
    originating cells.
    """
    idx = np.arange(w)
    x = (2.0 * idx + 1.0) / w - 1.0
    xx, yy = np.meshgrid(x, x)            # yy varies with row, xx with col
    rr = xx * xx + yy * yy
    inside = rr < 1.0
    rows, cols = np.nonzero(inside)
    z = np.sqrt(1.0 - rr[inside])
    lights = np.column_stack([xx[inside], yy[inside], z])
    return lights, rows, cols


def axis_from_normal(n):
    """Unit 2D direction of a normal's in-plane projection.

    Falls back to the fixed convention (1, 0) when the normal is within 1e-6
    of the viewing axis, where every direction is equally valid.  A stack of
    normals (..., 3) gives a stack of axes (..., 2), each bit-identical to
    the single-normal call.
    """
    planar = np.asarray(n, dtype=float)[..., :2]
    # matmul takes the same dot product as np.linalg.norm of one vector.
    norm = np.sqrt(planar[..., None, :] @ planar[..., :, None])[..., 0]
    fallback = norm <= 1e-6
    return np.where(fallback, [1.0, 0.0], planar / np.where(fallback, 1.0, norm))


def _centered_grid(w):
    """Flattened centered cell coordinates (px, py), cached per width."""
    cached = _centered_grid._cache.get(w)
    if cached is None:
        c0 = (w - 1) / 2.0
        idx = np.arange(w, dtype=float)
        xs, ys = np.meshgrid(idx - c0, idx - c0)   # ys by row, xs by col
        cached = (xs.ravel().copy(), ys.ravel().copy())
        _centered_grid._cache[w] = cached
    return cached


_centered_grid._cache = {}


def _reflection(w, axes):
    """Mirror terms for axes (B, 2): (cos2, sin2) of the doubled axis angle,
    each (B, 1), and the reflected index positions (pos_x, pos_y), each
    (B, w*w)."""
    axes = np.asarray(axes, dtype=float)
    c0 = (w - 1) / 2.0
    px, py = _centered_grid(w)
    ax = axes[:, 0:1]
    ay = axes[:, 1:2]
    cos2 = ax * ax - ay * ay
    sin2 = 2.0 * ax * ay
    pos_x = cos2 * px + sin2 * py + c0
    pos_y = sin2 * px - cos2 * py + c0
    return cos2, sin2, pos_x, pos_y


def mirror_sources(w, axes):
    """Nearest cell to each cell's mirror position about each axis (B, 2).

    Returns (src, inside), each (B, w*w): src indexes the flattened stack of
    B grids, and inside is False where the mirror position rounds to a cell
    outside the grid (src is then meaningless).
    """
    _, _, cx, cy = _reflection(w, axes)
    np.rint(cx, out=cx)
    np.rint(cy, out=cy)
    inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
    cy *= w
    cy += cx                                  # whole numbers, exact in float64
    cy += np.arange(cy.shape[0])[:, None] * (w * w)
    return cy.astype(np.int64), inside


class ReflectionPlan:
    """Precomputed geometry for mirroring a w x w grid about a center axis.

    The reflection matrix R = 2 a a^T - I maps centered cell coordinates to
    their mirror positions; values are read there with bilinear interpolation
    (zero outside the grid) and masks with nearest neighbor.  The plan also
    exposes the adjoint of the bilinear read and the derivative of the read
    with respect to the axis angle, both needed by loss gradients.
    """

    def __init__(self, w, axis):
        axis = np.asarray(axis, dtype=float)
        self.w = w
        self.axis = axis
        px, py = _centered_grid(w)
        # Reflected sample positions in index coordinates.
        cos2, sin2, self.pos_x, self.pos_y = (
            a[0] for a in _reflection(w, axis[None]))
        # Derivative of the position w.r.t. the axis angle psi.
        self.dpos_x = 2.0 * (-sin2 * px + cos2 * py)
        self.dpos_y = 2.0 * (cos2 * px + sin2 * py)

        x0 = np.floor(self.pos_x).astype(int)
        y0 = np.floor(self.pos_y).astype(int)
        fx = self.pos_x - x0
        fy = self.pos_y - y0
        self._corners = []
        for dy, dx, wgt in (
            (0, 0, (1 - fx) * (1 - fy)),
            (0, 1, fx * (1 - fy)),
            (1, 0, (1 - fx) * fy),
            (1, 1, fx * fy),
        ):
            cy = y0 + dy
            cx = x0 + dx
            inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
            self._corners.append((
                np.clip(cy, 0, w - 1),
                np.clip(cx, 0, w - 1),
                np.where(inside, wgt, 0.0),
                inside,
            ))
        self._fx = fx
        self._fy = fy

    def gather(self, values):
        """Bilinear read of `values` at the reflected positions -> (w, w)."""
        out = np.zeros(self.w * self.w)
        for cy, cx, wgt, _ in self._corners:
            out += wgt * values[cy, cx]
        return out.reshape(self.w, self.w)

    def adjoint(self, grid):
        """Transpose of gather: scatter a grid back through the reflection."""
        flat = np.asarray(grid, dtype=float).ravel()
        out = np.zeros((self.w, self.w))
        for cy, cx, wgt, _ in self._corners:
            np.add.at(out, (cy, cx), wgt * flat)
        return out

    def gather_nearest(self, grid):
        """Nearest-neighbor read at the reflected positions (used for masks);
        cells reflected outside the grid read zero."""
        src, inside = mirror_sources(self.w, self.axis[None])
        out = np.zeros(self.w * self.w, dtype=grid.dtype)
        out[inside[0]] = grid.reshape(-1)[src[inside]]
        return out.reshape(self.w, self.w)

    def position_gradient(self, values):
        """Spatial gradient of the bilinear read at each reflected position.

        Returns (dB/dx, dB/dy) flat arrays; piecewise constant per cell of the
        zero-padded bilinear field.  In-bounds corners contribute their true
        values even where the interpolation weight is exactly zero (sample on
        a cell edge), so the gradient matches the field, not the weights.
        """
        (cy00, cx00, _, in00), (cy01, cx01, _, in01), \
            (cy10, cx10, _, in10), (cy11, cx11, _, in11) = self._corners
        v00 = np.where(in00, values[cy00, cx00], 0.0)
        v01 = np.where(in01, values[cy01, cx01], 0.0)
        v10 = np.where(in10, values[cy10, cx10], 0.0)
        v11 = np.where(in11, values[cy11, cx11], 0.0)
        dbdx = (1 - self._fy) * (v01 - v00) + self._fy * (v11 - v10)
        dbdy = (1 - self._fx) * (v10 - v00) + self._fx * (v11 - v01)
        return dbdx, dbdy

    def angle_derivative_of_gather(self, values):
        """d(gather)/d(axis angle) at each cell, flattened."""
        dbdx, dbdy = self.position_gradient(values)
        return dbdx * self.dpos_x + dbdy * self.dpos_y


class BatchReflection:
    """Mirror geometry for a batch of maps with one axis per row.

    Equivalent to one ReflectionPlan per sample but built and applied with
    whole-batch array operations; used by the training loop where per-sample
    plan construction dominates.  values arguments have shape (B, w*w).
    """

    def __init__(self, w, axes):
        axes = np.asarray(axes, dtype=float)
        self.w = w
        self.batch = axes.shape[0]
        px, py = _centered_grid(w)
        cos2, sin2, pos_x, pos_y = _reflection(w, axes)   # pos: (B, w*w)
        self.dpos_x = 2.0 * (-sin2 * px + cos2 * py)
        self.dpos_y = 2.0 * (cos2 * px + sin2 * py)
        x0 = np.floor(pos_x).astype(np.int64)
        y0 = np.floor(pos_y).astype(np.int64)
        fx = pos_x - x0
        fy = pos_y - y0
        base = (np.arange(self.batch, dtype=np.int64) * (w * w))[:, None]
        self._idx = []
        self._wgt = []
        self._inside = []
        for dy, dx, wgt in (
            (0, 0, (1 - fx) * (1 - fy)),
            (0, 1, fx * (1 - fy)),
            (1, 0, (1 - fx) * fy),
            (1, 1, fx * fy),
        ):
            cy = y0 + dy
            cx = x0 + dx
            inside = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
            flat = base + np.clip(cy, 0, w - 1) * w + np.clip(cx, 0, w - 1)
            self._idx.append(flat)
            self._wgt.append(np.where(inside, wgt, 0.0))
            self._inside.append(inside)
        self._fx = fx
        self._fy = fy

    def gather(self, values):
        flat = values.reshape(-1)
        out = np.zeros((self.batch, self.w * self.w))
        for idx, wgt in zip(self._idx, self._wgt):
            out += wgt * flat.take(idx)
        return out

    def adjoint(self, grids):
        size = self.batch * self.w * self.w
        flat_out = np.zeros(size)
        for idx, wgt in zip(self._idx, self._wgt):
            flat_out += np.bincount(idx.ravel(), weights=(wgt * grids).ravel(),
                                    minlength=size)
        return flat_out.reshape(self.batch, self.w * self.w)

    def angle_derivative_of_gather(self, values):
        flat = values.reshape(-1)
        corners = [np.where(inside, flat.take(idx), 0.0)
                   for idx, inside in zip(self._idx, self._inside)]
        v00, v01, v10, v11 = corners
        dbdx = (1 - self._fy) * (v01 - v00) + self._fy * (v11 - v10)
        dbdy = (1 - self._fx) * (v10 - v00) + self._fx * (v11 - v01)
        return dbdx * self.dpos_x + dbdy * self.dpos_y


def batch_axes_from_normals(normals):
    """axis_from_normal for a stack of normals -> (B, 2)."""
    normals = np.asarray(normals, dtype=float)
    planar = normals[:, :2]
    norms = np.linalg.norm(planar, axis=1)
    out = np.zeros((normals.shape[0], 2))
    out[:, 0] = 1.0
    good = norms > 1e-6
    out[good] = planar[good] / norms[good, None]
    return out


def mirror(D: ObservationMap, n) -> ObservationMap:
    """Reflect a map about the center line along axis_from_normal(n).

    Values are resampled bilinearly with zero padding; the mask is reflected
    with nearest-neighbor lookup.  Axis-aligned axes reduce to exact index
    flips, making the operation an exact involution there.
    """
    plan = ReflectionPlan(D.width, axis_from_normal(n))
    return ObservationMap(
        np.clip(plan.gather(D.values), 0.0, None),
        plan.gather_nearest(D.mask),
    )


def avg_pool(D: ObservationMap) -> ObservationMap:
    """Stride-2 average pooling of the value grid; mask cell is 1 if any
    input cell in the 2 x 2 block is occupied."""
    w = D.width
    if w % 2 != 0:
        raise ValueError("pooling requires an even map width")
    h = w // 2
    blocks = D.values.reshape(h, 2, h, 2)
    pooled = blocks.mean(axis=(1, 3))
    mask = D.mask.reshape(h, 2, h, 2).max(axis=(1, 3))
    return ObservationMap(pooled, mask)


def save_pgm(D: ObservationMap, path):
    """Export the value grid as 8-bit binary PGM (values scaled by 255)."""
    from .fileio import write_pgm

    data = np.clip(np.rint(D.values * 255.0), 0, 255).astype(np.uint8)
    write_pgm(path, data)


def save_obsm(D: ObservationMap, path):
    """Write the flat binary record: magic, u32 width, float32 values, mask bytes."""
    with open(path, "wb") as fh:
        fh.write(OBSM_MAGIC)
        fh.write(struct.pack("<I", D.width))
        fh.write(D.values.astype("<f4").tobytes())
        fh.write(D.mask.astype(np.uint8).tobytes())


def load_obsm(path) -> ObservationMap:
    """Read a map written by save_obsm."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != OBSM_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        (w,) = struct.unpack("<I", fh.read(4))
        values = np.frombuffer(fh.read(4 * w * w), dtype="<f4").reshape(w, w)
        mask = np.frombuffer(fh.read(w * w), dtype=np.uint8).reshape(w, w)
    return ObservationMap(values.astype(float), mask.copy())
