"""Observation maps: fixed-size grids of irradiance indexed by light direction.

A light l with l.z >= 0 projects orthographically onto the x-y plane; the
unit disk of projected directions is binned into a w x w grid, so every
surface point's multi-light measurements become a map of shape (w, w) plus
an occupancy mask.  The module also provides the mirror operator the
symmetry losses are built on: reflecting a map about the axis projected by a
surface normal.
"""

from __future__ import annotations

import functools
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
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("values must be finite and nonnegative")

    @property
    def width(self) -> int:
        return self.values.shape[0]


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
        if not np.isfinite(self.irradiance).all() or (self.irradiance < 0).any():
            raise ValueError("irradiance must be finite and nonnegative")
        if self.normal is not None:
            self.normal = np.asarray(self.normal, dtype=float)

    def __len__(self) -> int:
        return self.lights.shape[0]


def project_light(l, w):
    """Grid cell (row, col) of a light direction under orthographic projection.

    col = clamp(floor(w * (l.x + 1) / 2), 0, w - 1) and likewise row from l.y,
    so the zenith (0, 0, 1) lands in the center cell: _project_lights on a
    batch of one.  Raises HemisphereError when l.z < 0.
    """
    return divmod(int(_project_lights(np.asarray(l, dtype=float)[None], w)[0]), w)


def _project_lights(lights, w):
    """Vectorized projection; returns each light's flat cell index row * w + col."""
    lights = np.asarray(lights, dtype=float)
    if (lights[:, 2] < 0).any():
        raise HemisphereError("light list contains a direction below the horizon")
    # Both coordinates at once: the per-sample training maps pay for every call.
    grid = np.floor(w * (lights[:, :2] + 1.0) / 2.0)
    col, row = np.minimum(np.maximum(grid, 0), w - 1).astype(int).T
    return row * w + col


def _cell_means(cell, irradiance, size):
    """Average samples into the occupied ones of `size` flat cells.

    irradiance has one row per sample, (k,) or (k, m); each cell sums its
    samples in sample order (bincount adds its weights in input order,
    from 0) and is divided by their count.  Returns (occupied (n,),
    means (n,) or (n, m)), occupied in increasing order.  Empty cells,
    which hold 0 in a map, are not divided.
    """
    if not (np.isfinite(irradiance).all() and (irradiance >= 0).all()):
        raise ValueError("irradiance must be finite and nonnegative")
    if size > 8 * cell.size:
        # Mostly empty cells, as in one grid per training sample (ten
        # million cells): sort the samples' cells rather than count every
        # cell, and sum into the occupied ones only.
        occupied, cell, counts = np.unique(cell, return_inverse=True,
                                           return_counts=True)
        size, keep = occupied.size, slice(None)
    else:
        counts = np.bincount(cell, minlength=size)
        keep = occupied = counts.nonzero()[0]
        counts = counts[occupied]
    m = irradiance[0].size
    if m > 1:
        cell = (cell[:, None] * m + np.arange(m)).ravel()
    sums = np.bincount(cell, weights=irradiance.ravel(), minlength=size * m)
    means = sums.reshape((size,) + irradiance.shape[1:])[keep]
    means /= counts.reshape((-1,) + (1,) * (irradiance.ndim - 1))
    return occupied, means


def occupied_cells(lights, irradiance_matrix, w):
    """The occupied cells of the w x w maps of many points sharing one light
    set, and each point's value there.

    irradiance_matrix has shape (k, m), one column per point.  Every point
    has the same occupied cells, at most one per light, so ten lights fill
    at most 10 of 1024 cells of a 32 x 32 map and a consumer that reads only
    these cells skips the rest, which are zero.  Samples landing in the same
    cell are averaged (summed in light order), then each column is divided
    by its peak so values lie in [0, 1].  Returns (cells (n,), values (n, m),
    ok (m,)): the flat cells row * w + col in increasing order, their values,
    and ok False for all-zero columns, whose values stay zero.
    """
    irr = np.asarray(irradiance_matrix, dtype=float)
    cells, values = _cell_means(_project_lights(lights, w), irr, w * w)
    peak = irr.max(axis=0)
    ok = peak > 0.0
    values /= np.where(ok, peak, 1.0)
    return cells, values, ok


def build_observation_maps(lights, irradiance_matrix, w):
    """occupied_cells scattered into dense w x w maps.

    Returns (values (m, w, w), mask (w, w) uint8, ok (m,)): the mask marks
    the occupied cells, the same for every column, and ok is False for
    all-zero columns, whose maps stay zero.
    """
    cells, sparse, ok = occupied_cells(lights, irradiance_matrix, w)
    return (*_scatter_cells(w, cells, sparse), ok)


def _scatter_cells(w, cells, values):
    """Dense maps (m, w, w) holding values (n, m) at the flat cells (n,),
    zero elsewhere, and their shared mask (w, w) uint8 of those cells."""
    maps = np.zeros((values.shape[1], w * w))
    maps[:, cells] = values.T
    mask = np.zeros(w * w, dtype=np.uint8)
    mask[cells] = 1
    return maps.reshape(-1, w, w), mask.reshape(w, w)


def build_sample_maps(samples, w):
    """The occupied cells of many points' maps, each with its own lights.

    samples is a sequence of PixelSamples, whose light counts may differ.
    Returns (cells, values): cells (n,), increasing, index the stacked flat
    maps (i * w*w + row * w + col), and each value carries the bits
    build_observation_map gives its point; every other cell is zero.  Raises
    DegenerateSamplesError when a point's irradiance is all zero.
    """
    sizes = [len(s) for s in samples]
    size = w * w
    irr = np.concatenate([s.irradiance for s in samples])
    cell = _project_lights(np.concatenate([s.lights for s in samples]), w)
    cell += np.repeat(np.arange(len(samples)) * size, sizes)
    occupied, means = _cell_means(cell, irr, len(samples) * size)
    peak = np.maximum.reduceat(irr, np.cumsum([0] + sizes[:-1]))
    if not (peak > 0.0).all():
        raise DegenerateSamplesError(
            f"sample {np.argmin(peak > 0.0)}: all sample irradiance values are zero")
    means /= peak[occupied // size]
    return occupied, means


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
    norm = np.linalg.norm(planar, axis=-1)[..., None]
    good = norm > 1e-6
    return np.where(good, planar / np.where(good, norm, 1.0), [1.0, 0.0])


@functools.lru_cache(maxsize=None)
def _centered_grid(w):
    """Flattened centered cell coordinates (px, py), cached per width."""
    c0 = (w - 1) / 2.0
    idx = np.arange(w, dtype=float)
    xs, ys = np.meshgrid(idx - c0, idx - c0)   # ys by row, xs by col
    return xs.ravel().copy(), ys.ravel().copy()


def _doubled_angles(axes):
    """(cos2, sin2), each (B,): cosine and sine of twice each axis angle of
    axes (B, 2)."""
    axes = np.asarray(axes, dtype=float)
    ax = axes[:, 0]
    ay = axes[:, 1]
    return ax * ax - ay * ay, 2.0 * ax * ay


def _mirror_position(cos2, sin2, px, py):
    """Centered mirror position of centered cell coordinates (px, py): the
    pair (rx, nry) with R (px, py) = (rx, -nry), R = [[cos2, sin2], [sin2,
    -cos2]] the reflection.  The index position is (rx + c0, c0 - nry), and
    (2 nry, 2 rx) is its derivative with respect to the axis angle."""
    return cos2 * px + sin2 * py, cos2 * py - sin2 * px


def _nearest_cell(w, pos_x, pos_y):
    """Flat index rint(pos_y) * w + rint(pos_x) of the cell nearest each
    position, as float (whole numbers, exact), and whether that cell lies
    inside the w x w grid.  Overwrites pos_x and pos_y."""
    np.rint(pos_x, out=pos_x)
    np.rint(pos_y, out=pos_y)
    inside = (pos_y >= 0) & (pos_y < w) & (pos_x >= 0) & (pos_x < w)
    pos_y *= w
    pos_y += pos_x
    return pos_y, inside


# The 3 x 3 block of cell offsets (dy, dx) around a point, row by row.
_BLOCK_DY = np.repeat([-1.0, 0.0, 1.0], 3)
_BLOCK_DX = np.tile([-1.0, 0.0, 1.0], 3)


def mirror_fill(w, axes, cells):
    """The empty cells whose nearest mirror cell is known, and that cell.

    cells (n,) are the flat known cells row * w + col, shared by every map,
    one map per unit axis of axes (m, 2).  Gives exactly the cells where
    BatchReflection.gather_nearest reads a known cell and the cell itself
    is not known, without testing every cell: a cell c whose mirror
    position R c rounds to a known cell k lies within sqrt(2)/2 of R k (R
    is its own inverse), so it is in the 3 x 3 block around rint(R k).
    Only those blocks are tested, through the same position and rounding
    expressions.  Returns (dst, src), flat indices into the stack (m*w*w);
    a cell may appear more than once, always with the same source.
    """
    size = w * w
    c0 = (w - 1) / 2.0
    cos2, sin2 = _doubled_angles(axes)
    px, py = _centered_grid(w)
    known = np.zeros(size, dtype=bool)
    known[cells] = True
    kmap = np.repeat(np.arange(cos2.size), len(cells))
    kcell = np.tile(cells, cos2.size)
    kx, nky = _mirror_position(cos2[kmap], sin2[kmap], px[kcell], py[kcell])
    cx = np.rint(kx + c0)[:, None] + _BLOCK_DX
    cy = np.rint(c0 - nky)[:, None] + _BLOCK_DY
    ok = (cy >= 0) & (cy < w) & (cx >= 0) & (cx < w)
    cell = (cy[ok] * w + cx[ok]).astype(np.int64)
    cmap = np.broadcast_to(kmap[:, None], ok.shape)[ok]
    sx, nsy = _mirror_position(cos2[cmap], sin2[cmap], px[cell], py[cell])
    src, inside = _nearest_cell(w, sx + c0, c0 - nsy)
    src = np.where(inside, src, 0.0).astype(np.int64)
    take = inside & known[src] & ~known[cell]
    cmap = cmap[take] * size
    return cmap + cell[take], cmap + src[take]


class BatchReflection:
    """Mirror geometry for a stack of w x w maps, one center axis per map.

    The reflection matrix R = 2 a a^T - I maps centered cell coordinates to
    their mirror positions; values are read there with bilinear interpolation
    (zero outside the grid) and masks with nearest neighbor.  The adjoint of
    the bilinear read and its derivative with respect to the axis angle serve
    the loss gradients.  Maps are passed flattened, shape (B, w*w).

    Bilinear reads and scatters go through a copy of the stack in which each
    map has a zero border of pad = ceil((w-1)/2 * (sqrt(2)-1)) + 1 cells
    (8 at w = 32, 5 at w = 16).  A mirror position lies at most
    (w-1)/2 * sqrt(2) from the center, so all four corners of every position
    fall inside the map's own padded block, and corners outside the grid
    read the border's zeros: nothing is clipped or masked.  The fractions
    fx, fy come from the unshifted positions (pos - floor(pos)) and the
    border is added to the integer index only, so every weight and every
    sum has the bits it has without the border.
    """

    def __init__(self, w, axes):
        self.w = w
        self.axes = np.asarray(axes, dtype=float)
        self.batch = self.axes.shape[0]
        self.pad = int(np.ceil((w - 1) / 2.0 * (np.sqrt(2.0) - 1.0))) + 1
        self._side = side = w + 2 * self.pad
        cos2, sin2 = _doubled_angles(self.axes)
        c0 = (w - 1) / 2.0
        self._rx, self._nry = _mirror_position(cos2[:, None], sin2[:, None],
                                               *_centered_grid(w))
        self.pos_x = self._rx + c0
        self.pos_y = c0 - self._nry
        x0 = np.floor(self.pos_x)
        y0 = np.floor(self.pos_y)
        self._fx = fx = self.pos_x - x0
        self._fy = fy = self.pos_y - y0
        # Padded flat index of each top-left corner; whole numbers, exact in
        # float64.
        y0 += self.pad
        y0 *= side
        y0 += x0
        y0 += (np.arange(self.batch) * (side * side) + self.pad)[:, None]
        base = y0.astype(np.int64)
        self._gx = gx = 1 - fx
        self._gy = gy = 1 - fy
        self._idx = (base, base + 1, base + side, base + (side + 1))
        self._wgt = (gx * gy, fx * gy, gx * fy, fx * fy)

    def _padded(self, grids):
        """The stack (B, w*w) with each map inside its zero border, flat."""
        w, p = self.w, self.pad
        out = np.zeros((self.batch, self._side, self._side))
        out[:, p:p + w, p:p + w] = grids.reshape(self.batch, w, w)
        return out.reshape(-1)

    def corners(self, values):
        """The values (v00, v01, v10, v11) at the four bilinear corners of
        every reflected position, each (B, w*w), read from the padded stack.
        gather and angle_derivative_of_gather take them in place of reading
        the same stack again."""
        flat = self._padded(values)
        return tuple(flat.take(idx) for idx in self._idx)

    def gather(self, values, corners=None):
        """Bilinear read of each map at its reflected positions; corners,
        when given, are corners(values)."""
        if corners is None:
            corners = self.corners(values)
        out = np.zeros((self.batch, self.w * self.w))
        for v, wgt in zip(corners, self._wgt):
            out += wgt * v
        return out

    def adjoint(self, grids):
        """Transpose of gather: scatter each grid back through its reflection
        into the padded stack, then drop the border."""
        w, p, side = self.w, self.pad, self._side
        size = self.batch * side * side
        flat_out = np.zeros(size)
        for idx, wgt in zip(self._idx, self._wgt):
            flat_out += np.bincount(idx.ravel(), weights=(wgt * grids).ravel(),
                                    minlength=size)
        out = flat_out.reshape(self.batch, side, side)[:, p:p + w, p:p + w]
        return out.reshape(self.batch, w * w)

    def gather_nearest(self, grids):
        """Nearest-neighbor read at the reflected positions (used for masks);
        cells reflected outside the grid read zero."""
        src, inside = _nearest_cell(self.w, self.pos_x.copy(), self.pos_y.copy())
        src += (np.arange(self.batch) * (self.w * self.w))[:, None]
        out = np.zeros(src.shape, dtype=grids.dtype)
        out[inside] = grids.reshape(-1)[src[inside].astype(np.int64)]
        return out

    def angle_derivative_of_gather(self, values, corners=None):
        """d(gather)/d(axis angle) at each cell; corners, when given, are
        corners(values).

        Uses the spatial gradient of the zero-padded bilinear field, piecewise
        constant per cell.  In-bounds corners contribute their true values
        even where the interpolation weight is exactly zero (sample on a cell
        edge), so the gradient matches the field, not the weights.
        """
        if corners is None:
            corners = self.corners(values)
        v00, v01, v10, v11 = corners
        dbdx = self._gy * (v01 - v00) + self._fy * (v11 - v10)
        dbdy = self._gx * (v10 - v00) + self._fx * (v11 - v01)
        # The position's derivative w.r.t. the axis angle is (2 nry, 2 rx).
        return dbdx * (2.0 * self._nry) + dbdy * (2.0 * self._rx)


class ReflectionPlan:
    """BatchReflection of one map about one axis: (w, w) grids in and out.

    pos_x and pos_y are the reflected index positions of the flattened grid.
    """

    def __init__(self, w, axis):
        self.w = w
        self.axis = np.asarray(axis, dtype=float)
        self._batch = BatchReflection(w, self.axis[None])
        self.pos_x = self._batch.pos_x[0]
        self.pos_y = self._batch.pos_y[0]

    def _one(self, method, grid):
        return method(np.asarray(grid).reshape(1, -1))[0]

    def gather(self, values):
        return self._one(self._batch.gather, values).reshape(self.w, self.w)

    def gather_nearest(self, grid):
        return self._one(self._batch.gather_nearest, grid).reshape(self.w, self.w)


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
