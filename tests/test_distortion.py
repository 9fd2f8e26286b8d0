"""Weighting-measure machinery: examples, invariants, cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import beta as beta_fn
from scipy.special import comb

from crm import contribution as C
from crm import distortion as D
from crm import scenario as S


class TestSpectrum:
    def test_alpha_closed_form_at_half(self):
        assert D.beta(2, 1).spectrum(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_tail_step(self):
        m = D.tail(0.5)
        assert m.spectrum(0.25) == 2.0
        assert m.spectrum(0.5) == 2.0  # left-continuous: includes the atom
        assert m.spectrum(0.75) == 0.0

    def test_mixture_suffix_sum(self):
        m = D.mixture([(0.5, 0.5), (1.0, 0.5)])
        assert m.spectrum(0.75) == pytest.approx(0.5)
        assert m.spectrum(0.25) == pytest.approx(0.5 / 0.5 + 0.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            D.tail(0.5).spectrum(0.0)
        with pytest.raises(ValueError):
            D.beta(3, 1).spectrum(1.5)

    def test_integer_beta_matches_combinatorial_sum(self):
        # direct finite sum: (a/b) * sum_{i<=b} C(a-1, i-1) x^(i-1) (1-x)^(a-i)
        for a, b in [(3, 1), (5, 2), (8, 5), (12, 12 - 1)]:
            m = D.beta(a, b)
            xs = np.linspace(0.01, 0.99, 23)
            direct = (a / b) * sum(comb(a - 1, i - 1) * xs ** (i - 1)
                                   * (1 - xs) ** (a - i) for i in range(1, b + 1))
            assert np.allclose(m.spectrum(xs), direct, atol=1e-10)

    def test_negative_second_parameter_quadrature_path(self):
        m = D.beta(1.5, -0.25)
        xs = np.array([0.05, 0.3, 0.7])
        norm = beta_fn(0.75, 1.75)
        for x in xs:
            ref, _ = integrate.quad(
                lambda t: t ** (-1.25) * (1 - t) ** 0.75 / norm, x, 1.0)
            assert m.spectrum(x) == pytest.approx(ref, rel=1e-8)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing(self, x1, x2):
        lo, hi = sorted((x1, x2))
        for m in (D.tail(0.3), D.beta(4, 2), D.mixture([(0.2, 0.5), (0.9, 0.5)])):
            assert m.spectrum(lo) >= m.spectrum(hi) - 1e-12


class TestDistortionFunction:
    def test_normalization(self, measure_zoo):
        for m in measure_zoo.values():
            assert m.distortion(0.0) == pytest.approx(0.0, abs=1e-14)
            assert m.distortion(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_tail_ramp(self):
        assert D.tail(0.5).distortion(0.25) == pytest.approx(0.5)

    def test_beta_quadratic(self):
        assert D.beta(2, 1).distortion(0.5) == pytest.approx(0.75)

    def test_total_mass_one_by_quadrature(self):
        for m in (D.beta(6, 2), D.beta(3.7, 1.2), D.beta(250, 25)):
            val, _ = integrate.quad(lambda x: m.spectrum(x), 0.0, 1.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_running_integral_of_spectrum(self, measure_zoo):
        # finite differences of the distortion match the spectrum on a
        # 10^4-point grid, away from the atoms of step-function spectra
        grid = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
        h = 1e-7
        for name, m in measure_zoo.items():
            if name in ("tail", "mixture"):
                atoms = m.levels
                pts = grid[np.all(np.abs(grid[:, None] - atoms[None, :]) > 1e-3,
                                  axis=1)]
            else:
                pts = grid
            fd = (m.distortion(pts + h) - m.distortion(pts - h)) / (2 * h)
            assert np.max(np.abs(fd - m.spectrum(pts))) < 1e-6 * np.maximum(
                1.0, np.abs(m.spectrum(pts))).max() + 1e-6

    def test_concavity_on_grid(self, measure_zoo):
        x = np.linspace(0, 1, 201)
        for m in measure_zoo.values():
            y = m.distortion(x)
            assert np.all(np.diff(y) >= -1e-12)
            mid = m.distortion((x[:-2] + x[2:]) / 2)
            assert np.all(mid >= (y[:-2] + y[2:]) / 2 - 1e-10)

    def test_dominance_ordering_transfers_to_risk(self):
        # pointwise-larger distortion means more risk averse, on every law
        rng = np.random.default_rng(3)
        pairs = [(D.tail(0.25), D.tail(0.5)), (D.beta(8, 2), D.beta(5, 2)),
                 (D.beta(6, 1), D.beta(6, 3))]
        grid = np.linspace(0, 1, 101)
        for m_hi, m_lo in pairs:
            assert np.all(m_hi.distortion(grid) >= m_lo.distortion(grid) - 1e-12)
            for _ in range(20):
                vals = rng.normal(size=12)
                probs = rng.dirichlet(np.ones(12))
                d = S.ScenarioDistribution(vals, probs)
                assert S.weighted_var(d, m_hi) >= S.weighted_var(d, m_lo) - 1e-9


class TestGaussianMultiplier:
    def test_tail_closed_forms(self):
        assert D.gaussian_multiplier(D.tail(1.0)) == 0.0
        assert D.gaussian_multiplier(D.tail(0.5)) == pytest.approx(0.79788, abs=5e-6)
        assert D.gaussian_multiplier(D.tail(0.05)) == pytest.approx(2.06271, abs=5e-6)

    def test_decreasing_in_level(self):
        grid = np.arange(0.01, 1.005, 0.01)
        vals = [D.tail_gaussian_multiplier(float(l)) for l in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_order_two_matches_expected_minimum(self):
        # minus the mean minimum of two standard normals is 1/sqrt(pi)
        assert D.gaussian_multiplier(D.beta(2, 1)) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-8)

    def test_beta_quadrature_against_density_integral(self):
        # independent route: integrate the tail closed form against the density
        for a, b in [(10, 2), (5, 1), (3.5, 1.25)]:
            m = D.beta(a, b)
            norm = beta_fn(b + 1.0, a - b)

            def dens(lam, a=a, b=b, norm=norm):
                return D.tail_gaussian_multiplier(lam) * lam ** b * (1 - lam) ** (a - b - 1) / norm

            ref, _ = integrate.quad(dens, 0.0, 1.0, limit=300)
            assert D.gaussian_multiplier(m) == pytest.approx(ref, rel=1e-7)

    def test_mixture_is_level_average(self):
        m = D.mixture([(0.1, 0.3), (0.6, 0.7)])
        want = 0.3 * D.tail_gaussian_multiplier(0.1) + 0.7 * D.tail_gaussian_multiplier(0.6)
        assert D.gaussian_multiplier(m) == pytest.approx(want, rel=1e-12)

    def test_unbounded_spectrum_still_finite(self):
        # levels pile up near zero but the multiplier converges; check it
        # against a dense midpoint evaluation of the level-density integral
        m = D.beta(0.5, -0.2)
        got = D.gaussian_multiplier(m)
        from scipy.special import beta as beta_fn
        norm = beta_fn(0.8, 0.7)
        lam = (np.arange(2_000_000) + 0.5) / 2_000_000
        dens = lam ** -0.2 * (1 - lam) ** -0.3 / norm
        gammas = np.array([D.tail_gaussian_multiplier(float(l))
                           for l in lam[:2000]])
        # midpoint rule on a fine head grid plus coarse remainder
        head = float(np.mean(gammas * dens[:2000]) * (lam[1999] + 0.5 / 2_000_000))
        coarse_lam = np.linspace(0.001, 0.9995, 4000)
        coarse = np.trapezoid(
            np.array([D.tail_gaussian_multiplier(float(l)) for l in coarse_lam])
            * coarse_lam ** -0.2 * (1 - coarse_lam) ** -0.3 / norm, coarse_lam)
        assert np.isfinite(got) and got > 0.0
        assert got == pytest.approx(head + coarse, rel=0.05)


class TestConstructionAndParsing:
    def test_alpha_is_beta_with_one(self):
        xs = np.linspace(0.05, 0.95, 11)
        assert np.allclose(D.alpha(7).spectrum(xs), D.beta(7, 1).spectrum(xs))

    def test_equal_parameters_collapse_to_mean(self):
        m = D.beta(4, 4)
        assert m.kind == "mixture"
        d = S.ScenarioDistribution([-2.0, 1.0, 7.0])
        assert S.weighted_var(d, m) == pytest.approx(-2.0)

    @pytest.mark.parametrize("text, orders", [
        ("alpha:8.0", (8, 1)), ("beta: 6, 2", (6, 2)), ("beta:4,4", (4, 4)),
        ("alpha:1", (1, 1)), ("alpha:2.5", None), ("beta:6,2.5", None), ("beta:6,0", None),
        ("beta:3,0.5", None), ("tail:0.05", None), ("mix:0.5@0.25,0.5@1.0", None)])
    def test_orders_of_order_statistics_measures(self, text, orders):
        assert D.parse_measure(text).orders == orders

    def test_duplicate_mixture_levels_merge_into_one_atom(self):
        merged, tail = D.parse_measure("mix:0.5@0.1,0.5@0.1"), D.parse_measure("tail:0.1")
        assert (merged.levels.tolist(), merged.weights.tolist()) == ([0.1], [1.0])
        rng = np.random.default_rng(2)
        w = rng.normal(size=40).round(1)  # ties
        probs = rng.uniform(0.5, 1.5, size=40)
        d = S.ScenarioDistribution(w, probs / probs.sum())
        assert S.weighted_var(d, merged) == S.weighted_var(d, tail)
        got, want = (C.extreme_measure(w, probs / probs.sum(), m) for m in (merged, tail))
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.utility == want.utility

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            D.tail(0.0)
        with pytest.raises(ValueError):
            D.beta(-1.0, 0.0)
        with pytest.raises(ValueError):
            D.beta(3, 4)
        with pytest.raises(ValueError):
            D.mixture([(0.5, 0.4)])  # weights must sum to one
        with pytest.raises(ValueError):
            D.parse_measure("nope:1")
        with pytest.raises(ValueError):
            D.parse_measure("beta:3")
