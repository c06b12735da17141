"""Symmetry-based losses with analytic gradients.

For an isotropic surface, a dense observation map is mirror symmetric about
the axis its normal projects to, so the symmetric loss penalizes the L1
difference between a map and its mirrored copy.  The asymmetric loss instead
pins that difference (at full and pooled resolution) to a nonzero target,
modeling the localized damage left by cast shadows and inter-reflection.
L1 norms are plain sums of absolute cell values; angle terms are radians.

Gradients are exact almost everywhere: the L1 subgradient at zero is taken
as 0, and the transpose of the bilinear mirror map is applied in closed
form.  A central finite-difference checker is included as the independent
verification path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .obsmap import BatchReflection, ObservationMap, axis_from_normal


@dataclass
class LossWeights:
    """Weights shared by both training objectives."""

    lambda_s: float = 2e-2
    lambda_a: float = 2e-5
    lambda_c: float = 50.0
    eta: float = 1.0

    def __post_init__(self):
        if min(self.lambda_s, self.lambda_a, self.lambda_c, self.eta) < 0:
            raise ValueError("loss weights must be >= 0")


DEFAULT_WEIGHTS = LossWeights()


def _sign(x):
    # Subgradient convention: sign(0) = 0 keeps gradients bounded at ties.
    return np.sign(x)


def _pool_quarter(values, w):
    """Stride-2 average pooling of a stack of flattened maps (B, w*w)."""
    half = w // 2
    pooled = values.reshape(-1, half, 2, half, 2).mean(axis=(2, 4))
    return pooled.reshape(-1, half * half)


def _upsample_quarter(grids, half):
    """Adjoint of _pool_quarter: spread each cell over its 2 x 2 block / 4."""
    out = grids.reshape(-1, half, half)
    out = np.repeat(np.repeat(out, 2, axis=1), 2, axis=2) / 4.0
    return out.reshape(len(grids), 4 * half * half)


class MirrorResidual:
    """A stack of maps (B, w*w) minus their mirror images, one axis per map.

    l1 holds sum |V - R V| per map, R the bilinear mirror of `refl`.  The
    mirror's corner reads of V serve both the residual and its angle
    derivative, so V is padded and read once.
    """

    def __init__(self, values, refl: BatchReflection):
        self.values = values
        self.refl = refl
        self.corners = refl.corners(values)
        self.diff = values - refl.gather(values, self.corners)
        self.l1 = np.abs(self.diff).sum(axis=1)

    def value_grad(self):
        """d l1 / d V, through the adjoint of the mirror."""
        s = _sign(self.diff)
        return s - self.refl.adjoint(s)

    def angle_grad(self):
        """d l1 / d(axis angle), per map."""
        return -(_sign(self.diff)
                 * self.refl.angle_derivative_of_gather(
                     self.values, self.corners)).sum(axis=1)


class SymmetryTerms:
    """Symmetric and asymmetric losses of a stack of maps (B, w*w).

    sym is the full-resolution mirror residual; asym is |sym - eta| plus
    lambda_c * |pooled residual - eta|.  refl_full and refl_half mirror the
    maps and their pooled copies (computed when `pooled` is not given).
    """

    def __init__(self, values, refl_full: BatchReflection,
                 refl_half: BatchReflection, weights: LossWeights = DEFAULT_WEIGHTS,
                 pooled=None):
        self.weights = weights
        self.full = MirrorResidual(values, refl_full)
        if pooled is None:
            pooled = _pool_quarter(values, refl_full.w)
        self.half = MirrorResidual(pooled, refl_half)
        self.sym = self.full.l1
        self.asym = (np.abs(self.sym - weights.eta)
                     + weights.lambda_c * np.abs(self.half.l1 - weights.eta))

    def _asym_signs(self):
        eta = self.weights.eta
        return _sign(self.sym - eta), self.weights.lambda_c * _sign(self.half.l1 - eta)

    def value_grads(self):
        """(d sym / d V, d asym / d V), each (B, w*w)."""
        g_sym = self.full.value_grad()
        s_full, s_half = self._asym_signs()
        g_half = _upsample_quarter(self.half.value_grad(), self.half.refl.w)
        g_asym = s_full[:, None] * g_sym + s_half[:, None] * g_half
        return g_sym, g_asym

    def angle_grads(self):
        """(d sym / d psi, d asym / d psi) per map, psi the axis angle."""
        d_sym = self.full.angle_grad()
        s_full, s_half = self._asym_signs()
        return d_sym, s_full * d_sym + s_half * self.half.angle_grad()


def reflections(w, axes):
    """The full- and half-resolution mirrors that SymmetryTerms takes."""
    return BatchReflection(w, axes), BatchReflection(w // 2, axes)


# Batch rows per block of a training step's symmetry terms, whose (ROWS, w*w)
# temporaries then stay in cache; chosen by a sweep (README, "Performance").
ROWS = 8


def row_blocks(batch, block):
    """The arrays of block(rows), one row per row of the slice, for slices
    of ROWS rows (one empty slice for an empty batch), written into arrays
    of `batch` rows.  SymmetryTerms reads each map's row alone (sums along
    it, mirror reads and scatters in its own padded block), so its blocks
    carry the bits of a whole-batch call.
    """
    outs = None
    for lo in range(0, max(batch, 1), ROWS):
        rows = slice(lo, lo + ROWS)
        parts = block(rows)
        if outs is None:
            outs = [np.empty((batch,) + p.shape[1:], p.dtype) for p in parts]
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


def dpsi_dn(n):
    """Gradient of the axis angle psi = atan2(n_y, n_x) w.r.t. each normal
    of a stack (B, 3); zero rows where the axis falls back to (1, 0)."""
    planar_sq = n[:, 0] ** 2 + n[:, 1] ** 2
    out = np.zeros_like(n)
    good = planar_sq > 1e-12
    out[good, 0] = -n[good, 1] / planar_sq[good]
    out[good, 1] = n[good, 0] / planar_sq[good]
    return out


def _residual(D: ObservationMap, n) -> MirrorResidual:
    """MirrorResidual of one map about the normal's axis: a stack of one."""
    axes = axis_from_normal(n)[None]
    return MirrorResidual(D.values.reshape(1, -1), BatchReflection(D.width, axes))


def _terms(D: ObservationMap, n, weights) -> SymmetryTerms:
    """SymmetryTerms of one map about the normal's axis: a stack of one."""
    axes = axis_from_normal(n)[None]
    return SymmetryTerms(D.values.reshape(1, -1), *reflections(D.width, axes), weights)


def sym_loss(D: ObservationMap, n) -> float:
    """L1 difference between a map and its mirror about the normal's axis."""
    return float(_residual(D, n).l1[0])


def asym_loss(D: ObservationMap, n, weights: LossWeights = DEFAULT_WEIGHTS) -> float:
    """|sym - eta| at full resolution plus lambda_c * |sym - eta| after pooling."""
    return float(_terms(D, n, weights).asym[0])


def _arccos_clamped(n, n_gt):
    d = float(np.clip(np.dot(n, n_gt), -1.0, 1.0))
    return float(np.arccos(d))


def ne_recon_loss(n, n_gt) -> float:
    """Angle in radians between estimated and true normal."""
    return _arccos_clamped(n, n_gt)


def li_recon_loss(n, n_gt, D: ObservationMap, D_gt: ObservationMap, m_s) -> float:
    """Normal angle plus L1 map error, with occupied cells counted twice."""
    m_s = np.asarray(m_s, dtype=float)
    if D.values.shape != D_gt.values.shape or m_s.shape != D.values.shape:
        raise ShapeError(
            f"map shapes differ: {D.values.shape}, {D_gt.values.shape}, {m_s.shape}"
        )
    diff = D.values - D_gt.values
    return (
        _arccos_clamped(n, n_gt)
        + float(np.abs(diff).sum())
        + float(np.abs(m_s * diff).sum())
    )


def li_total_loss(n, n_gt, D, D_gt, m_s, weights: LossWeights = DEFAULT_WEIGHTS) -> float:
    """Interpolation objective: reconstruction plus symmetry terms on the
    predicted map, mirrored about the ground-truth normal."""
    return (
        li_recon_loss(n, n_gt, D, D_gt, m_s)
        + weights.lambda_s * sym_loss(D, n_gt)
        + weights.lambda_a * asym_loss(D, n_gt, weights)
    )


def ne_total_loss(n, n_gt, D_gt, weights: LossWeights = DEFAULT_WEIGHTS) -> float:
    """Estimation objective: reconstruction plus symmetry terms on the
    ground-truth map, mirrored about the predicted normal."""
    return (
        ne_recon_loss(n, n_gt)
        + weights.lambda_s * sym_loss(D_gt, n)
        + weights.lambda_a * asym_loss(D_gt, n, weights)
    )


def grad_map(kind, D: ObservationMap, n=None, D_gt=None, m_s=None,
             weights: LossWeights = DEFAULT_WEIGHTS):
    """Exact gradient of a scalar loss with respect to every cell of D.

    kind is one of "sym", "asym", "li_recon".  The sym/asym kinds need the
    normal fixing the mirror axis; li_recon needs the reference map and the
    sparse-occupancy mask (its angle term does not depend on D, so it
    contributes nothing here).
    """
    if kind == "sym":
        return _residual(D, n).value_grad().reshape(D.values.shape)
    if kind == "asym":
        return _terms(D, n, weights).value_grads()[1].reshape(D.values.shape)
    if kind == "li_recon":
        if D_gt is None or m_s is None:
            raise ValueError("li_recon gradient needs D_gt and m_s")
        if D.values.shape != D_gt.values.shape:
            raise ShapeError("map shapes differ")
        s = _sign(D.values - D_gt.values)
        return s + np.asarray(m_s, dtype=float) * s
    raise ValueError(f"unknown loss kind {kind!r}")


def finite_diff_check(kind, D: ObservationMap, n, h=1e-4, D_gt=None, m_s=None,
                      weights: LossWeights = DEFAULT_WEIGHTS) -> float:
    """Max relative error between grad_map and central finite differences.

    Relative error per cell is |analytic - fd| / (|fd| + 1e-8); the mirror
    geometry is built once, so only the value grid is re-evaluated per probe.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if kind in ("sym", "asym"):
        refl_full, refl_half = reflections(D.width, axis_from_normal(n)[None])
        if kind == "sym":
            loss = lambda v: MirrorResidual(v.reshape(1, -1), refl_full).l1[0]
        else:
            loss = lambda v: SymmetryTerms(
                v.reshape(1, -1), refl_full, refl_half, weights).asym[0]
    elif kind == "li_recon":
        ref = D_gt.values
        msk = np.asarray(m_s, dtype=float)

        def loss(v):
            diff = v - ref
            return float(np.abs(diff).sum() + np.abs(msk * diff).sum())
    else:
        raise ValueError(f"unknown loss kind {kind!r}")

    analytic = grad_map(kind, D, n=n, D_gt=D_gt, m_s=m_s, weights=weights)
    w = D.width
    worst = 0.0
    probe = D.values.copy()
    for r in range(w):
        for c in range(w):
            orig = probe[r, c]
            probe[r, c] = orig + h
            up = loss(probe)
            probe[r, c] = orig - h
            down = loss(probe)
            probe[r, c] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(analytic[r, c] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, rel)
    return worst


def sym_loss_normal_grad(D: ObservationMap, n):
    """Gradient of sym_loss with respect to the (unit) normal.

    The loss depends on n only through the mirror axis angle; the chain runs
    through the reflected sample positions and the spatial gradient of the
    zero-padded bilinear field.  Zero in the degenerate branch where the axis
    falls back to its fixed convention.
    """
    d_sym = _residual(D, n).angle_grad()
    return (d_sym[:, None] * dpsi_dn(np.asarray(n, dtype=float)[None]))[0]


def asym_loss_normal_grad(D: ObservationMap, n, weights: LossWeights = DEFAULT_WEIGHTS):
    """Gradient of asym_loss with respect to the (unit) normal."""
    _, d_asym = _terms(D, n, weights).angle_grads()
    return (d_asym[:, None] * dpsi_dn(np.asarray(n, dtype=float)[None]))[0]

