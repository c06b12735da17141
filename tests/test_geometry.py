"""Tests for unit-vector math, hemisphere sampling, and light perturbation."""

import numpy as np
import pytest

from sparseps.errors import NormalizationError
from sparseps.geometry import (
    angular_error_deg,
    load_lights,
    normalize,
    perturb_light,
    sample_hemisphere_lights,
    save_lights,
)


class TestNormalize:
    def test_scaling(self):
        np.testing.assert_allclose(normalize([0, 0, 2]), [0, 0, 1])

    def test_345_triple(self):
        np.testing.assert_allclose(normalize([3, 4, 0]), [0.6, 0.8, 0.0])

    def test_diagonal(self):
        # 1/sqrt(3) = 0.57735... computed directly
        expected = 1.0 / np.sqrt(3.0)
        np.testing.assert_allclose(normalize([1, 1, 1]),
                                   [expected] * 3, atol=1e-4)
        np.testing.assert_allclose(normalize([1, 1, 1]),
                                   [0.5774] * 3, atol=1e-4)

    def test_zero_vector_raises(self):
        with pytest.raises(NormalizationError):
            normalize([0, 0, 0])

    def test_unit_output(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=3)
            assert np.linalg.norm(normalize(v)) == pytest.approx(1.0, abs=1e-12)


class TestAngularError:
    def test_identity(self):
        assert angular_error_deg([0, 0, 1], [0, 0, 1]) == 0.0

    def test_orthogonal(self):
        assert angular_error_deg([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)

    def test_analytic_rotation(self):
        ten = np.radians(10.0)
        n2 = [0.0, np.sin(ten), np.cos(ten)]
        assert angular_error_deg([0, 0, 1], n2) == pytest.approx(10.0, abs=1e-6)

    def test_clamping_absorbs_rounding(self):
        v = normalize([0.3, -0.2, 0.93])
        assert angular_error_deg(v, v) == 0.0

    def test_symmetric_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c = (normalize(rng.normal(size=3)) for _ in range(3))
            ab = angular_error_deg(a, b)
            ba = angular_error_deg(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab <= angular_error_deg(a, c) + angular_error_deg(c, b) + 1e-9

    def test_broadcasts_over_stacks(self):
        stack = np.array([[0, 0, 1.0], [1.0, 0, 0]])
        out = angular_error_deg(stack, np.array([0, 0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 90.0])


class TestHemisphereSampling:
    def test_deterministic_given_seed(self):
        a = sample_hemisphere_lights(10, 75.0, np.random.default_rng(3))
        b = sample_hemisphere_lights(10, 75.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_hemisphere_constraint(self):
        lights = sample_hemisphere_lights(500, 90.0, np.random.default_rng(1))
        assert np.all(lights[:, 2] >= 0)

    def test_hemisphere_constraint_seed_sweep(self):
        for seed in range(100):
            lights = sample_hemisphere_lights(20, 90.0, np.random.default_rng(seed))
            assert np.all(lights[:, 2] >= 0)
            np.testing.assert_allclose(np.linalg.norm(lights, axis=1), 1.0,
                                       atol=1e-12)

    def test_cap_constraint(self):
        lights = sample_hemisphere_lights(400, 30.0, np.random.default_rng(2))
        assert np.all(lights[:, 2] >= np.cos(np.radians(30.0)) - 1e-12)

    def test_mean_z_of_area_uniform_hemisphere(self):
        # Monte-Carlo oracle: area-uniform on the full hemisphere means z is
        # uniform on [0, 1], so E[z] = 1/2.
        lights = sample_hemisphere_lights(10 ** 5, 90.0, np.random.default_rng(7))
        assert lights[:, 2].mean() == pytest.approx(0.5, abs=0.01)


class TestPerturbLight:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            l = sample_hemisphere_lights(1, 80.0, rng)[0]
            out = perturb_light(l, 0.0, rng)
            np.testing.assert_array_equal(out, l)

    def test_output_on_hemisphere_and_unit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            l = sample_hemisphere_lights(1, 90.0, rng)[0]
            out = perturb_light(l, 12.0, rng)
            assert out[2] >= 0
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_mean_deviation_matches_folded_normal(self):
        # |N(0, sigma^2)| has mean sigma * sqrt(2/pi); for sigma = 4 that is
        # 3.1915 degrees.  The zenith light keeps the hemisphere clamp inert.
        sigma = 4.0
        expected = sigma * np.sqrt(2.0 / np.pi)
        rng = np.random.default_rng(9)
        zenith = np.array([0.0, 0.0, 1.0])
        devs = [angular_error_deg(perturb_light(zenith, sigma, rng), zenith)
                for _ in range(10 ** 5)]
        assert np.mean(devs) == pytest.approx(expected, abs=0.1)
        assert np.mean(devs) == pytest.approx(3.19, abs=0.1)


class TestLightListIO:
    def test_round_trip(self, tmp_path):
        lights = sample_hemisphere_lights(25, 75.0, np.random.default_rng(8))
        path = tmp_path / "lights.txt"
        save_lights(path, lights)
        back = load_lights(path)
        assert back.shape == (25, 3)
        # 9 significant digits survive a text round trip well below 1e-7.
        np.testing.assert_allclose(back, lights, atol=1e-7)

    def test_format_is_one_triple_per_line(self, tmp_path):
        path = tmp_path / "lights.txt"
        save_lights(path, [[0.0, 0.0, 1.0]])
        assert path.read_text().strip() == "0 0 1"

    @pytest.mark.parametrize("row", ["0 0 0", "nan 0 1", "0 inf 1"])
    def test_row_without_direction_names_its_line(self, tmp_path, row):
        path = tmp_path / "lights.txt"
        path.write_text(f"0 0 1\n\n{row}\n0.6 0 0.8\n")
        with pytest.raises(ValueError) as exc:
            load_lights(path)
        assert str(exc.value).startswith(f"{path}: line 3: ")
