import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from qftcalc import checks, pipelines
from qftcalc.oracles import (
    CATALOG,
    central_difference_periodic,
    loglog_slope,
    mean_absolute_error,
    r_squared,
    sample_catalog,
    trapezoid_partial_sums,
)

from conftest import dft_derivative


class TestDftDerivative:
    def test_constant_gives_zeros(self):
        assert_allclose(dft_derivative(np.full(16, 3.7), dx=0.1), np.zeros(16), atol=1e-12)

    def test_sine_matches_shifted_cosine(self):
        n = 64
        dx = 0.25
        j = np.arange(n)
        samples = np.sin(2.0 * np.pi * j / n)
        got = dft_derivative(samples, dx)
        expected = np.cos(2.0 * np.pi * j / n) * np.sin(2.0 * np.pi / n) / dx
        assert_allclose(got, expected, atol=1e-10)
        assert_allclose(got, central_difference_periodic(samples, dx), atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
    def test_equals_central_difference(self, n, rng):
        samples = rng.normal(size=n)
        dx = 0.5
        assert_allclose(
            dft_derivative(samples, dx),
            central_difference_periodic(samples, dx),
            atol=1e-9 * np.linalg.norm(samples),
        )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dft_derivative(np.ones(6), dx=1.0)


class TestCentralDifference:
    def test_hand_example(self):
        # (f[(j+1)%4] - f[(j-1)%4]) / 2 by hand: j=0 -> (1-(-1))/2 = 1, etc.
        # Cross-check: the samples are sin(2*pi*j/4), whose stencil output is
        # cos(2*pi*j/4) * sin(2*pi/4) / dx = [1, 0, -1, 0].
        assert_allclose(
            central_difference_periodic(np.array([0.0, 1.0, 0.0, -1.0]), dx=1.0),
            [1.0, 0.0, -1.0, 0.0],
        )

    def test_constant(self):
        assert_allclose(central_difference_periodic(np.full(8, 2.0), dx=0.3), np.zeros(8))

    def test_linear_ramp_with_wrap(self):
        samples = np.arange(8, dtype=float)
        dx = 1.0
        # Direct evaluation of (f[(j+1) mod N] - f[(j-1) mod N]) / (2 dx).
        expected = [
            (samples[(j + 1) % 8] - samples[(j - 1) % 8]) / 2.0 for j in range(8)
        ]
        got = central_difference_periodic(samples, dx)
        assert_allclose(got, expected)
        assert_allclose(got[1:-1], 1.0)  # interior slope exact
        assert got[0] == -3.0 and got[-1] == -3.0  # wrap reflects the jump

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            central_difference_periodic(np.array([1.0]), dx=1.0)


class TestTrapezoidPartialSums:
    def test_constant(self):
        c, dx = 1.7, 0.25
        got = trapezoid_partial_sums(np.full(8, c), dx)
        assert_allclose(got, c * dx * (np.arange(8) + 1.0), atol=1e-12)

    def test_delta_example(self):
        got = trapezoid_partial_sums(np.array([1.0, 0.0, 0.0, 0.0]), dx=1.0)
        assert_allclose(got, [0.0, 0.5, 0.5, 1.0])

    def test_matches_exact_quantum_integral(self):
        f = sample_catalog("cos2pix", 6)
        series = pipelines.qfti_run(f, shots=None)
        oracle_sq = trapezoid_partial_sums(f.samples, f.dx) ** 2
        assert np.max(np.abs(series.value_sq - oracle_sq)) <= 1e-9


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 1.0

    def test_mean_predictor_scores_zero(self):
        reference = np.array([1.0, 2.0, 3.0])
        assert_allclose(r_squared(np.full(3, reference.mean()), reference), 0.0, atol=1e-15)

    def test_hand_computed_half(self):
        assert_allclose(
            r_squared(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0])), 0.5
        )

    def test_negative_when_worse_than_mean(self):
        assert r_squared(np.array([10.0, -10.0, 10.0]), np.array([1.0, 2.0, 3.0])) < 0.0

    def test_mask_selects_points(self):
        predicted = np.array([1.0, 99.0, 3.0])
        reference = np.array([1.0, 2.0, 3.0])
        mask = np.array([True, False, True])
        assert r_squared(predicted, reference, mask) == 1.0

    def test_scale_invariance(self, rng):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        base = r_squared(a, b)
        for c in (2.0, -0.5, 1e6):
            assert_allclose(r_squared(c * a, c * b), base, rtol=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            r_squared(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        with pytest.raises(ValueError):
            r_squared(np.ones(3), np.ones(4))


class TestMeanAbsoluteError:
    def test_identical(self):
        assert mean_absolute_error(np.ones(5), np.ones(5)) == 0.0

    def test_hand_example(self):
        assert mean_absolute_error(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 2.0

    def test_empty_mask_errors(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.ones(3), np.ones(3), np.zeros(3, dtype=bool))


class TestLogLogSlope:
    def test_power_law(self):
        x = np.array([8.0, 16.0, 32.0, 64.0])
        assert_allclose(loglog_slope(x, 5.0 / x**2), -2.0, atol=1e-12)


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_derivative_against_high_order_differences(self, name):
        fn = CATALOG[name]
        lo, hi = fn.default_domain
        xs = np.linspace(lo + 0.3, hi - 0.3, 11)
        if fn.singular:
            xs = xs[np.abs(xs) > 0.3]
        h = 1e-4 * max(abs(lo), abs(hi))
        # Five-point central stencil, O(h^4).
        numeric = (
            -fn.value(xs + 2 * h) + 8 * fn.value(xs + h) - 8 * fn.value(xs - h) + fn.value(xs - 2 * h)
        ) / (12.0 * h)
        # Relative tolerance away from zero crossings, absolute floor at them.
        assert_allclose(fn.derivative(xs), numeric, rtol=1e-6, atol=1e-8 * np.max(np.abs(numeric)))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_integral_against_quadrature(self, name):
        fn = CATALOG[name]
        if fn.singular:
            # Keep the integration interval on one side of the pole.
            x0, targets = 0.25, (0.6, 0.95)
        else:
            lo, hi = fn.default_domain
            x0 = lo + 0.27 * (hi - lo)
            targets = (lo + 0.45 * (hi - lo), lo + 0.8 * (hi - lo))
        for x in targets:
            expected, _ = integrate.quad(lambda t: float(fn.value(np.array([t]))[0]), x0, x)
            got = float(fn.integral_from(x0, np.array([x]))[0])
            assert_allclose(got, expected, atol=1e-9)

    def test_grid_convention_left_edges(self):
        f = sample_catalog("cos2pix", 3, (-2.0, 2.0))
        assert f.dx == 0.5
        assert_allclose(f.x, -2.0 + 0.5 * np.arange(8))
        assert_allclose(f.samples, np.cos(2.0 * np.pi * f.x))

    def test_grid_convention_midpoints_for_singular(self):
        f = sample_catalog("invx", 3, (-1.0, 1.0))
        assert_allclose(f.x, -1.0 + 0.25 * (np.arange(8) + 0.5))
        assert np.all(f.x != 0.0)

    def test_default_domains(self):
        assert CATALOG["cos2pix"].default_domain == (-2.0, 2.0)
        assert CATALOG["invx"].default_domain == (-1.0, 1.0)
        assert CATALOG["poly"].default_domain == (-2.0, 2.0)
        assert CATALOG["harmonics"].default_domain == (-2.0, 2.0)

    def test_poly_form(self):
        # Cubic minus the linear term: f(1) = 1, f(-1) = 1, f(2) = 10.
        poly = CATALOG["poly"].value
        assert_allclose(poly(np.array([1.0, -1.0, 2.0])), [1.0, 1.0, 10.0])

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            sample_catalog("poly", 3, (1.0, 1.0))

    def test_rejects_domain_wider_than_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wider than float range"):
                sample_catalog("poly", 4, (-1e308, 1e308))


class TestCheckOracle:
    # Where the oracle is zero or below round-off, an all-zero output is right.
    ZERO_ORACLE = {("qftd", "cos2pix", 3), ("qfti", "cos2pix", 4)}

    @pytest.mark.parametrize("mode", ["qftd", "qfti"])
    @pytest.mark.parametrize("function", sorted(CATALOG))
    def test_all_zero_output_fails_at_every_width(self, mode, function, monkeypatch):
        # At n = 16 the 1e-9 scale^2 bound alone passed this output for
        # cos2pix and harmonics; the bound by scale * max|oracle| fails it.
        def zeros(f, shots=None, seed=0):
            return SimpleNamespace(value_sq=np.zeros(f.n_points))

        monkeypatch.setattr(pipelines, f"{mode}_run", zeros)
        for n in range(3, 17):
            result = checks.check_oracle(mode, function, n)
            assert result.passed == ((mode, function, n) in self.ZERO_ORACLE), result.detail

    @pytest.mark.parametrize("mode", ["qftd", "qfti"])
    @pytest.mark.parametrize("function", sorted(CATALOG))
    def test_output_scaled_by_a_millionth_fails_at_every_width(self, mode, function, monkeypatch):
        # The two older bounds passed the real output times 1 + 1e-6 at 21
        # cases (QFTD cos2pix n >= 11 and harmonics n >= 10, QFTI cos2pix
        # and invx n >= 13); the bound by max oracle^2 fails it. The real
        # output passes, at 1/20 of that bound or less.
        real_run = getattr(pipelines, f"{mode}_run")
        stencil = central_difference_periodic if mode == "qftd" else trapezoid_partial_sums
        for n in range(3, 17):
            f = sample_catalog(function, n)
            value_sq = real_run(f, shots=None).value_sq
            oracle_sq = stencil(f.samples, f.dx) ** 2
            zero_oracle = (mode, function, n) in self.ZERO_ORACLE
            assert zero_oracle or np.max(np.abs(value_sq - oracle_sq)) <= checks.ORACLE_REL_TOL / 20 * np.max(oracle_sq)
            for factor, should_pass in ((1.0, True), (1.0 + 1e-6, zero_oracle)):
                output = SimpleNamespace(value_sq=value_sq * factor)
                monkeypatch.setattr(pipelines, f"{mode}_run", lambda f, shots=None, seed=0: output)
                result = checks.check_oracle(mode, function, n)
                assert result.passed == should_pass, (n, factor, result.detail)
