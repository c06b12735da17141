"""Tests for the symmetry losses, totals, and their analytic gradients."""

import numpy as np
import pytest

from helpers import (
    avg_pool,
    random_unit_normal,
    sample_angle_margin_instance,
    sample_margin_instance,
    symmetric_map,
)
from sparseps.errors import ShapeError
from sparseps.geometry import normalize
from sparseps.losses import (
    ROWS,
    LossWeights,
    SymmetryTerms,
    _pool_quarter,
    _upsample_quarter,
    asym_loss,
    dpsi_dn,
    finite_diff_check,
    grad_map,
    li_recon_loss,
    li_total_loss,
    ne_recon_loss,
    ne_total_loss,
    reflections,
    row_blocks,
    sym_loss,
)
from sparseps.obsmap import ObservationMap, axis_from_normal, mirror

Z = np.array([0.0, 0.0, 1.0])


def ones_mask(w):
    return np.ones((w, w), np.uint8)


class TestSymLoss:
    def test_hand_computed_2x2(self):
        obs = ObservationMap(np.array([[0.0, 1.0], [0.0, 1.0]]), ones_mask(2))
        assert sym_loss(obs, [0, 1, 0]) == pytest.approx(4.0)

    def test_constant_map_exact_axes(self):
        obs = ObservationMap(np.full((16, 16), 0.4), ones_mask(16))
        # Axis-aligned axes map the square onto itself exactly.
        for n in ([0, 1, 0], [1, 0, 0], [0, 0, 1]):
            assert sym_loss(obs, n) == 0.0
        # Diagonal axes are exact up to one rounding step in the reflection.
        for n in (normalize([1, 1, 0.3]), normalize([1, -1, 0.5])):
            assert sym_loss(obs, n) <= 1e-10

    def test_radial_map_any_axis(self):
        # Disk-supported radial profile: reflections through the center leave
        # it unchanged up to interpolation error.
        w = 32
        idx = (np.arange(w) - (w - 1) / 2.0) / (w / 2.0)
        xx, yy = np.meshgrid(idx, idx)
        rr = xx ** 2 + yy ** 2
        values = np.where(rr < 0.9, np.exp(-2.5 * rr), 0.0)
        obs = ObservationMap(values, (values > 0).astype(np.uint8))
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = random_unit_normal(rng)
            assert sym_loss(obs, n) <= 0.05 * values.sum()

    def test_symmetric_fixed_points(self):
        rng = np.random.default_rng(1)
        obs_v = symmetric_map(16, rng, axis="vertical")
        assert sym_loss(obs_v, [0, 1, 0]) == 0.0
        obs_h = symmetric_map(16, rng, axis="horizontal")
        assert sym_loss(obs_h, [1, 0, 0]) == 0.0
        assert sym_loss(obs_h, [0, 0, 1]) == 0.0

    def test_invariant_under_in_plane_negation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            obs, n = sample_margin_instance(rng, w=16, margin=0.0)
            flipped = np.array([-n[0], -n[1], n[2]])
            assert sym_loss(obs, n) == pytest.approx(sym_loss(obs, flipped),
                                                     abs=1e-12)

    def test_nonnegative_and_zero_iff_mirror_fixed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            obs, n = sample_margin_instance(rng, w=8, margin=0.0)
            assert sym_loss(obs, n) >= 0.0
        sym = symmetric_map(8, np.random.default_rng(4), axis="vertical")
        assert sym_loss(sym, [0, 1, 0]) == 0.0
        asymmetric = ObservationMap(np.eye(8) * 0.5 + 0.1, ones_mask(8))
        assert sym_loss(asymmetric, [0, 1, 0]) > 0.0


class TestAsymLoss:
    def test_symmetric_map_hits_offset_floor(self):
        # Both symmetry sums vanish: |0 - 1| + 50 * |0 - 1| = 51.
        rng = np.random.default_rng(5)
        for axis, n in (("vertical", [0, 1, 0]), ("horizontal", [1, 0, 0]),
                        ("horizontal", [0, 0, 1])):
            obs = symmetric_map(32, rng, axis=axis)
            assert asym_loss(obs, n) == 51.0

    def test_constant_map(self):
        obs = ObservationMap(np.full((32, 32), 0.7), ones_mask(32))
        assert asym_loss(obs, [0, 1, 0]) == 51.0

    def test_composition_oracle(self):
        # Independent recomputation from sym_loss and avg_pool.
        rng = np.random.default_rng(6)
        weights = LossWeights()
        for _ in range(10):
            obs, n = sample_margin_instance(rng, w=16, margin=0.0)
            expected = abs(sym_loss(obs, n) - weights.eta) \
                + weights.lambda_c * abs(sym_loss(avg_pool(obs), n) - weights.eta)
            assert asym_loss(obs, n, weights) == pytest.approx(expected, rel=1e-12)
            assert asym_loss(obs, n, weights) >= 0.0

    def test_custom_eta(self):
        obs = symmetric_map(16, None, axis="vertical")
        weights = LossWeights(eta=0.5, lambda_c=10.0)
        assert asym_loss(obs, [0, 1, 0], weights) == pytest.approx(0.5 + 10 * 0.5)


class TestReconLosses:
    def test_ne_identity(self):
        assert ne_recon_loss(Z, Z) == 0.0

    def test_ne_antipodal(self):
        assert ne_recon_loss([0, 0, 1.0], [0, 0, -1.0]) == pytest.approx(np.pi)

    def test_ne_ten_degrees(self):
        ten = np.radians(10.0)
        n2 = [0.0, np.sin(ten), np.cos(ten)]
        assert ne_recon_loss(Z, n2) == pytest.approx(0.17453, abs=1e-5)

    def test_li_perfect(self):
        obs = symmetric_map(8, np.random.default_rng(7))
        assert li_recon_loss(Z, Z, obs, obs, np.zeros((8, 8))) == 0.0

    def test_li_orthogonal_normals(self):
        obs = symmetric_map(8, np.random.default_rng(8))
        loss = li_recon_loss([1.0, 0, 0], [0, 1.0, 0], obs, obs, np.zeros((8, 8)))
        assert loss == pytest.approx(np.pi / 2)

    def test_li_masked_cell_counted_twice(self):
        w = 8
        ref = symmetric_map(w, None)
        values = ref.values.copy()
        values[2, 3] += 0.1
        pred = ObservationMap(values, ones_mask(w))
        mask = np.zeros((w, w))
        mask[2, 3] = 1.0
        loss = li_recon_loss(Z, Z, pred, ref, mask)
        assert loss == pytest.approx(0.2)

    def test_li_shape_mismatch(self):
        small = symmetric_map(8, None)
        big = symmetric_map(16, None)
        with pytest.raises(ShapeError):
            li_recon_loss(Z, Z, small, big, np.zeros((8, 8)))


class TestTotalLosses:
    def test_perfect_inputs_leave_asym_floor(self):
        # recon and sym vanish; only lambda_a * 51 remains.
        obs = symmetric_map(32, np.random.default_rng(9), axis="horizontal")
        n = np.array([1.0, 0.0, 0.0])
        total_ne = ne_total_loss(n, n, obs)
        assert total_ne == pytest.approx(51.0 * 2e-5, abs=1e-12)
        assert total_ne == pytest.approx(1.02e-3, abs=1e-12)
        total_li = li_total_loss(n, n, obs, obs, np.zeros((32, 32)))
        assert total_li == pytest.approx(1.02e-3, abs=1e-12)

    def test_zero_weights_reduce_to_recon(self):
        rng = np.random.default_rng(10)
        obs, n = sample_margin_instance(rng, w=16, margin=0.0)
        ref, _ = sample_margin_instance(rng, w=16, margin=0.0)
        weights = LossWeights(lambda_s=0.0, lambda_a=0.0)
        n_gt = random_unit_normal(rng)
        assert ne_total_loss(n, n_gt, obs, weights) == pytest.approx(
            ne_recon_loss(n, n_gt))
        m_s = np.zeros((16, 16))
        assert li_total_loss(n, n_gt, obs, ref, m_s, weights) == pytest.approx(
            li_recon_loss(n, n_gt, obs, ref, m_s))

    def test_doubling_lambda_s_adds_exactly_sym(self):
        rng = np.random.default_rng(11)
        obs, n = sample_margin_instance(rng, w=16, margin=0.0)
        n_gt = random_unit_normal(rng)
        base = LossWeights(lambda_s=2e-2)
        double = LossWeights(lambda_s=4e-2)
        delta = ne_total_loss(n, n_gt, obs, double) - ne_total_loss(n, n_gt, obs, base)
        assert delta == pytest.approx(2e-2 * sym_loss(obs, n), rel=1e-9)

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(12)
        obs, n = sample_margin_instance(rng, w=16, margin=0.0)
        n_gt = random_unit_normal(rng)
        lo = ne_total_loss(n, n_gt, obs, LossWeights(lambda_s=1e-3, lambda_a=1e-6))
        hi = ne_total_loss(n, n_gt, obs, LossWeights(lambda_s=1e-2, lambda_a=1e-5))
        assert hi >= lo


class TestGradMap:
    def test_constant_map_sym_gradient_zero(self):
        obs = ObservationMap(np.full((16, 16), 0.3), ones_mask(16))
        grad = grad_map("sym", obs, n=[0, 1, 0])
        np.testing.assert_array_equal(grad, np.zeros((16, 16)))

    def test_li_recon_masked_cell_is_two(self):
        w = 8
        ref = symmetric_map(w, None)
        values = np.clip(ref.values + 0.05, 0.0, 1.0)
        pred = ObservationMap(values, ones_mask(w))
        mask = np.zeros((w, w))
        mask[4, 4] = 1.0
        grad = grad_map("li_recon", pred, D_gt=ref, m_s=mask)
        assert grad[4, 4] == pytest.approx(2.0)
        assert grad[1, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["sym", "asym", "li_recon"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(8):
            obs, n, ref, mask = sample_margin_instance(
                rng, w=16, margin=1e-3, need_reference=True)
            err = finite_diff_check(kind, obs, n, h=1e-4, D_gt=ref, m_s=mask)
            assert err <= 1e-4

    def test_fd_stability_under_h(self):
        # The loss is piecewise linear, so away from ties both probes sit at
        # the roundoff floor; shrinking h must not lift the error above it.
        rng = np.random.default_rng(14)
        obs, n = sample_margin_instance(rng, w=16, margin=1e-2)
        coarse = finite_diff_check("sym", obs, n, h=1e-3)
        fine = finite_diff_check("sym", obs, n, h=1e-4)
        assert fine <= 2.0 * coarse + 1e-8
        assert max(coarse, fine) <= 1e-4

    def test_constant_map_fd_error_zero(self):
        obs = ObservationMap(np.full((8, 8), 0.6), ones_mask(8))
        assert finite_diff_check("sym", obs, [0, 1, 0], h=1e-4) == 0.0

    def test_unknown_kind_rejected(self):
        obs = symmetric_map(8, None)
        with pytest.raises(ValueError):
            grad_map("nope", obs, n=Z)


class TestNormalAxisGradients:
    """The sym/asym losses move with the normal through the mirror axis."""

    @staticmethod
    def normal_grad(kind, D, n):
        """d loss / d n: SymmetryTerms' angle gradient chained with
        d psi / d n."""
        n = np.asarray(n, dtype=float)[None]
        terms = SymmetryTerms(D.values.reshape(1, -1),
                              *reflections(D.width, axis_from_normal(n)))
        d_sym, d_asym = terms.angle_grads()
        return ((d_sym if kind == "sym" else d_asym)[:, None] * dpsi_dn(n))[0]

    @pytest.mark.parametrize("kind,loss", [("sym", sym_loss), ("asym", asym_loss)])
    def test_matches_finite_differences(self, kind, loss):
        rng = np.random.default_rng(15)
        eps = 1e-6
        for _ in range(6):
            obs, n = sample_angle_margin_instance(rng, w=16)
            grad = self.normal_grad(kind, obs, n)
            for k in range(3):
                probe = n.copy()
                probe[k] += eps
                up = loss(obs, probe)
                probe[k] -= 2 * eps
                down = loss(obs, probe)
                fd = (up - down) / (2 * eps)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_degenerate_axis_gradient_is_zero(self):
        obs = symmetric_map(16, np.random.default_rng(16))
        np.testing.assert_array_equal(self.normal_grad("sym", obs, Z), np.zeros(3))


class TestMirrorConsistency:
    def test_sym_loss_agrees_with_public_mirror(self):
        rng = np.random.default_rng(17)
        obs, n = sample_margin_instance(rng, w=16, margin=0.0)
        expected = np.abs(obs.values - mirror(obs, n).values).sum()
        assert sym_loss(obs, n) == pytest.approx(expected, rel=1e-12)


class TestRowBlocks:
    @pytest.mark.parametrize("batch", [1, ROWS - 1, ROWS + 1, 128, 129])
    @pytest.mark.parametrize("w", [32, 16])
    def test_blocks_equal_one_whole_batch_call(self, w, batch):
        # Both training uses: g's terms on given pooled maps with angle
        # gradients, f's with pooling inside and value gradients.
        rng = np.random.default_rng(1000 * w + batch)
        values = rng.uniform(size=(batch, w * w))
        values[:, ::5] = 0.0
        normals = rng.normal(size=(batch, 3))
        normals[::3, :2] = 0.0                 # axis falls back to (1, 0)
        normals[1::4, 1] = 0.0                 # axis-aligned mirror
        axes = axis_from_normal(normals)
        pooled = _pool_quarter(values, w)
        weights = LossWeights()

        def results(rows):
            refl = reflections(w, axes[rows])
            g = SymmetryTerms(values[rows], *refl, weights, pooled=pooled[rows])
            f = SymmetryTerms(values[rows], *refl, weights)
            return (g.sym, g.asym, *g.angle_grads(),
                    f.sym, f.asym, *f.value_grads())

        got = row_blocks(batch, results)
        want = results(slice(None))
        assert len(got) == len(want) == 8
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and a.shape == b.shape, k
            assert a.tobytes() == b.tobytes(), k

    def test_pool_and_upsample_an_empty_stack(self):
        assert _pool_quarter(np.zeros((0, 8 * 8)), 8).shape == (0, 4 * 4)
        assert _upsample_quarter(np.zeros((0, 4 * 4)), 4).shape == (0, 8 * 8)
