"""Unit-vector math for directional lighting.

Conventions used throughout the package: the camera looks along -z, so the
viewing direction is v = (0, 0, 1), and every light direction or surface
normal is a unit 3-vector with a nonnegative z component.  Vectors are plain
numpy arrays of shape (3,); collections of directions are arrays of shape
(k, 3).
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError

VIEW_DIR = np.array([0.0, 0.0, 1.0])

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def normalize(v):
    """Scale a 3-vector to unit length, preserving its direction.

    Raises NormalizationError for zero-length or non-finite input.
    """
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0 or not np.isfinite(n):
        raise NormalizationError(f"cannot normalize vector with norm {n}")
    return v / n


def normalize_with_flip(u):
    """Normalize each row of u (m, 3) and flip it into the z >= 0 hemisphere.

    Returns (n, flip, norms): flip is -1.0 where a row was negated and 1.0
    elsewhere.  Rows with a zero norm are left unscaled; each caller decides
    whether that is an error or an invalid pixel.
    """
    norms = np.linalg.norm(u, axis=1)
    n = u / np.where(norms == 0.0, 1.0, norms)[:, None]
    flip = np.where(n[:, 2] < 0, -1.0, 1.0)
    return n * flip[:, None], flip, norms


def angular_error_deg(n, n_gt):
    """Angle between unit vectors in degrees, in [0, 180].

    Accepts single vectors of shape (3,) or stacks (..., 3); the dot product
    is clamped to [-1, 1] so rounding never produces NaN.
    """
    n = np.asarray(n, dtype=float)
    n_gt = np.asarray(n_gt, dtype=float)
    d = np.clip(np.sum(n * n_gt, axis=-1), -1.0, 1.0)
    out = np.degrees(np.arccos(d))
    return float(out) if out.ndim == 0 else out


def sample_hemisphere_lights(count, max_zenith_deg=75.0, rng=None):
    """Draw `count` light directions, uniform by area over a spherical cap.

    The cap is centered on +z and extends to the given zenith angle; every
    returned row satisfies z >= cos(max_zenith_deg).  Deterministic for a
    seeded generator.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < max_zenith_deg <= 90.0:
        raise ValueError("max_zenith_deg must be in (0, 90]")
    rng = np.random.default_rng(rng)
    z_min = np.cos(np.radians(max_zenith_deg))
    # Area-uniform on the cap: z is uniform, azimuth is uniform.
    z = rng.uniform(z_min, 1.0, size=count)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _perpendicular_basis(l):
    """Two orthonormal vectors spanning the plane perpendicular to l."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(l[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = helper - np.dot(helper, l) * l
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(l, e1)
    return e1, e2


def perturb_light(l, sigma_deg, rng=None):
    """Rotate a light about a random perpendicular axis by N(0, sigma^2) degrees.

    sigma_deg = 0 returns the input unchanged.  If the rotation pushes the
    direction below the horizon, z is negated and the vector renormalized so
    the hemisphere constraint always holds.
    """
    l = np.asarray(l, dtype=float)
    if sigma_deg < 0:
        raise ValueError("sigma_deg must be >= 0")
    if sigma_deg == 0:
        return l.copy()
    rng = np.random.default_rng(rng)
    e1, e2 = _perpendicular_basis(l)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.cos(alpha) * e1 + np.sin(alpha) * e2
    theta = np.radians(rng.normal(0.0, sigma_deg))
    # Rodrigues with axis perpendicular to l (the axis . l term vanishes).
    out = l * np.cos(theta) + np.cross(axis, l) * np.sin(theta)
    if out[2] < 0:
        out[2] = -out[2]
    return out / np.linalg.norm(out)


def save_lights(path, lights):
    """Write light directions as text, one "x y z" triple per line."""
    lights = np.asarray(lights, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for row in lights:
            fh.write(f"{row[0]:.9g} {row[1]:.9g} {row[2]:.9g}\n")


def load_lights(path):
    """Read a light list written by save_lights; rows are renormalized.

    Raises ValueError naming the line of a row that is not three numbers,
    has no finite, nonzero length (it names no direction) or points below
    the horizon (z < 0).
    """
    rows = []
    numbers = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError:
                row = []
            if len(row) != 3:
                raise ValueError(f"{path}: line {number}: {line!r} is not "
                                 "three numbers")
            rows.append(row)
            numbers.append(number)
    if not rows:
        raise ValueError(f"{path}: no lights")
    lights = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(lights, axis=1, keepdims=True)
    for bad, why in ((~(np.isfinite(norms) & (norms > 0.0))[:, 0],
                      "has no finite, nonzero length"),
                     (lights[:, 2] < 0, "points below the horizon (z < 0)")):
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError(f"{path}: line {numbers[first]}: light "
                             f"{rows[first]} {why}")
    return lights / norms
