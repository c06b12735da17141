"""Synthetic ground truth: isotropic shading, sphere rendering, dense maps.

Reflectance models are functions of (n.l, n.v, v.l) only, so any two lights
placed symmetrically about the plane spanned by the viewing direction and the
normal shade to identical values.  Cast-shadow style outliers are modeled by
a cone occluder in light space rather than by tracing scene geometry.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import fileio
from .geometry import VIEW_DIR
from .errors import DegenerateSamplesError
from .obsmap import ObservationMap, PixelSamples, build_observation_maps

# Unused here, but bound: bench/run.py traces this name on this module.
from .obsmap import build_observation_map  # noqa: F401,E402


@dataclass
class Lambertian:
    """Constant diffuse reflectance.

    Like BlinnPhong's, the parameter may also be a (P, 1) column, one row
    per point of a batch (_irradiance).
    """

    albedo: float = 1.0
    name = "lambertian"

    def __post_init__(self):
        if not np.all((0.0 < self.albedo) & (self.albedo <= 1.0)):
            raise ValueError("albedo must be in (0, 1]")

    def rho(self, n_dot_l, n_dot_v, v_dot_l):
        return self.albedo


@dataclass
class BlinnPhong:
    """Diffuse plus specular lobe around the half vector."""

    kd: float = 0.5
    ks: float = 0.5
    shininess: float = 10.0
    name = "blinnphong"

    def __post_init__(self):
        if np.any(self.kd < 0) or np.any(self.ks < 0):
            raise ValueError("kd and ks must be >= 0")
        if np.any(self.shininess < 1):
            raise ValueError("shininess must be >= 1")

    def rho(self, n_dot_l, n_dot_v, v_dot_l):
        # n.h expressed through the three isotropy invariants:
        # h = (l + v)/|l + v| and |l + v| = sqrt(2 + 2 v.l).
        denom = np.sqrt(np.clip(2.0 + 2.0 * v_dot_l, 1e-12, None))
        n_dot_h = np.clip((n_dot_l + n_dot_v) / denom, 0.0, None)
        return self.kd + self.ks * n_dot_h ** self.shininess


BRDFSpec = Union[Lambertian, BlinnPhong]


@dataclass
class OccluderCone:
    """Cone of blocked light directions standing in for a cast shadow."""

    center: np.ndarray
    half_angle_deg: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not 0.0 < self.half_angle_deg < 90.0:
            raise ValueError("half_angle_deg must be in (0, 90)")


def shade(n, l, brdf: BRDFSpec):
    """Irradiance max(n.l, 0) * rho(n.l, n.v, v.l); zero in attached shadow.

    `l` may be a single direction (3,) or a stack (k, 3); the return matches.
    _irradiance on a batch of one.
    """
    l = np.asarray(l, dtype=float)
    value = _irradiance(np.asarray(n, dtype=float)[None], np.atleast_2d(l)[None],
                        brdf)[0]
    return float(value[0]) if l.ndim == 1 else value


def _irradiance(normals, lights, brdf: BRDFSpec):
    """shade for P points, each under its own lights -> (P, k).

    normals (P, 3); lights (P, k, 3), or (k, 3) shared by every point;
    brdf's parameters are scalars or (P, 1) columns.  Every row has the bits
    shade gives its point alone: matmul makes one gemv l @ n per point
    (lights @ normals.T, one gemm, gives other bits), n.v and v.l are the z
    components exactly, and each elementwise op runs along a row as it runs
    along one point's lights, a parameter column taking a scalar's place.
    """
    ndl = np.matmul(lights, normals[:, :, None])[..., 0]
    rho = brdf.rho(ndl, normals[:, 2:], lights[..., 2])
    return np.where(ndl > 0, ndl, 0.0) * rho


def _shade_pixels(normals, lights, brdf: BRDFSpec):
    """Shade many pixels under many lights -> (k, m) irradiance matrix."""
    normals = np.asarray(normals, dtype=float)   # (m, 3)
    lights = np.asarray(lights, dtype=float)     # (k, 3)
    ndl = lights @ normals.T                     # (k, m)
    ndv = normals @ VIEW_DIR                     # (m,)
    vdl = lights @ VIEW_DIR                      # (k,)
    rho = brdf.rho(ndl, ndv[None, :], vdl[:, None])
    return np.where(ndl > 0, ndl, 0.0) * rho


@dataclass
class RenderedScene:
    """An orthographic sphere imaged under a fixed pool of lights."""

    resolution: int
    lights: np.ndarray            # (k, 3)
    images: np.ndarray            # (k, res, res)
    normals: np.ndarray           # (res, res, 3), zero outside the disk
    mask: np.ndarray              # (res, res) bool
    meta: dict = field(default_factory=dict)

    def pixel_samples(self, row, col) -> PixelSamples:
        """All observations of one pixel, with its ground-truth normal."""
        if not self.mask[row, col]:
            raise ValueError(f"pixel ({row}, {col}) is outside the object mask")
        return PixelSamples(
            lights=self.lights.copy(),
            irradiance=self.images[:, row, col].copy(),
            normal=self.normals[row, col].copy(),
        )


def render_sphere(resolution, brdf: BRDFSpec, lights) -> RenderedScene:
    """Render an orthographic unit sphere under each light.

    The pixel grid puts x = 2*col/res - 1 and y = 2*row/res - 1, so for even
    resolutions the exact apex normal (0, 0, 1) sits at pixel
    (res/2, res/2).  Pixels outside the unit disk carry no samples.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    lights = np.asarray(lights, dtype=float)
    if lights.ndim != 2 or lights.shape[0] < 1:
        raise ValueError("at least one light is required")
    idx = np.arange(resolution)
    x = 2.0 * idx / resolution - 1.0
    xx, yy = np.meshgrid(x, x)
    rr = xx * xx + yy * yy
    mask = rr < 1.0
    normals = np.zeros((resolution, resolution, 3))
    normals[mask, 0] = xx[mask]
    normals[mask, 1] = yy[mask]
    normals[mask, 2] = np.sqrt(1.0 - rr[mask])
    irr = _shade_pixels(normals[mask], lights, brdf)      # (k, m)
    images = np.zeros((lights.shape[0], resolution, resolution))
    images[:, mask] = irr
    meta = {"shape": "sphere", "res": resolution, "brdf": brdf.name}
    return RenderedScene(resolution, lights.copy(), images, normals, mask, meta)


def inject_cast_shadow(samples: PixelSamples, cone: OccluderCone) -> PixelSamples:
    """Zero the irradiance of every sample whose light falls inside the cone."""
    cos_half = np.cos(np.radians(cone.half_angle_deg))
    center = cone.center / np.linalg.norm(cone.center)
    inside = samples.lights @ center >= cos_half
    irr = samples.irradiance.copy()
    irr[inside] = 0.0
    return PixelSamples(samples.lights.copy(), irr, samples.normal)


def dense_map_lights(light_count, w):
    """Fixed low-discrepancy hemisphere sequence tuned to a w x w map.

    When the budget allows, the sequence starts with one light per in-disk
    grid cell center (so dense maps have no interior holes) and fills the
    remainder with a disk-uniform golden spiral; otherwise it is the spiral
    alone.  Deterministic for given (light_count, w): the array is built once
    per pair, cached and returned read-only.
    """
    return _dense_map_lights(int(light_count), int(w))


@functools.lru_cache(maxsize=None)
def _dense_map_lights(light_count, w):
    from .geometry import GOLDEN_ANGLE
    from .obsmap import map_cell_lights

    cells, _, _ = map_cell_lights(w)
    blocks = []
    extra = light_count
    if light_count >= cells.shape[0]:
        blocks.append(cells)
        extra = light_count - cells.shape[0]
    if extra > 0:
        i = np.arange(extra, dtype=float)
        r = np.sqrt((i + 0.5) / extra)
        phi = GOLDEN_ANGLE * i
        x = r * np.cos(phi)
        y = r * np.sin(phi)
        z = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
        blocks.append(np.column_stack([x, y, z]))
    lights = np.vstack(blocks)
    lights.flags.writeable = False
    return lights


def make_dense_gt_map(n, brdf: BRDFSpec, light_count=1000, w=32) -> ObservationMap:
    """Densely sampled reference map for a single normal.

    Uses the fixed sequence from dense_map_lights so the same arguments
    always produce the same map, bit for bit: build_observation_map's map
    of those lights.  _dense_gt_maps on a batch of one.
    """
    if light_count < 100:
        raise ValueError("light_count must be >= 100")
    return _dense_gt_maps(np.asarray(n, dtype=float)[None], brdf, light_count, w)[0]


def _dense_gt_maps(normals, brdf: BRDFSpec, light_count, w):
    """make_dense_gt_map for P points: normals (P, 3), brdf's parameters
    scalars or (P, 1) columns.  The points share their lights, so one
    build_observation_maps averages every cell of every map in light order,
    and the P maps share one mask."""
    lights = dense_map_lights(light_count, w)
    irr = _irradiance(normals, lights, brdf)
    values, mask, ok = build_observation_maps(lights, irr.T, w)
    if not ok.all():
        raise DegenerateSamplesError("all sample irradiance values are zero")
    return [ObservationMap(v, mask) for v in values]


def save_scene(scene: RenderedScene, directory):
    """Write a scene directory: lights.txt, img_####.pfm, normals.pfm, meta.txt."""
    from .geometry import save_lights

    os.makedirs(directory, exist_ok=True)
    save_lights(os.path.join(directory, "lights.txt"), scene.lights)
    for i in range(scene.lights.shape[0]):
        fileio.write_pfm(os.path.join(directory, f"img_{i:04d}.pfm"), scene.images[i])
    fileio.write_pfm(os.path.join(directory, "normals.pfm"), scene.normals)
    with open(os.path.join(directory, "meta.txt"), "w", encoding="utf-8") as fh:
        for key in sorted(scene.meta):
            fh.write(f"{key}={scene.meta[key]}\n")


def load_scene(directory) -> RenderedScene:
    """Read a scene directory written by save_scene.

    Raises ValueError naming the file that disagrees with the rest: a light
    count other than the number of img_*.pfm files, or than meta.txt's
    `lights` when given; a light below the horizon (load_lights); or an
    image whose shape is not the normals' or whose pixels are not all
    finite and nonnegative.
    """
    from .geometry import load_lights

    lights_path = os.path.join(directory, "lights.txt")
    lights = load_lights(lights_path)
    k = lights.shape[0]
    normals = fileio.read_pfm(os.path.join(directory, "normals.pfm"))
    found = sum(f.startswith("img_") and f.endswith(".pfm")
                for f in os.listdir(directory))
    if found != k:
        raise ValueError(f"{lights_path}: {k} lights, but {directory} holds "
                         f"{found} img_*.pfm images")
    meta = {}
    meta_path = os.path.join(directory, "meta.txt")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if "=" in line:
                    key, value = line.strip().split("=", 1)
                    meta[key] = value
        if meta.get("lights", str(k)) != str(k):
            raise ValueError(f"{meta_path}: lights={meta['lights']}, but "
                             f"{lights_path} holds {k} lights")
    images = np.empty((k,) + normals.shape[:2])
    paths = [os.path.join(directory, f"img_{i:04d}.pfm") for i in range(k)]
    for i, path in enumerate(paths):
        image = fileio.read_pfm(path)
        if image.shape != images.shape[1:]:
            raise ValueError(f"{path}: image shape {image.shape}, but the "
                             f"normals are {images.shape[1:]}")
        images[i] = image
    bad = ~(np.isfinite(images) & (images >= 0)).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"{paths[np.argmax(bad)]}: pixels must be finite "
                         "and nonnegative")
    mask = np.linalg.norm(normals, axis=2) > 0.5
    return RenderedScene(normals.shape[0], lights, images, normals, mask, meta)
