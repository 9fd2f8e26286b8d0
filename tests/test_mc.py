"""Monte Carlo estimators: examples, analytic populations, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crm import distortion as D
from crm import mc
from crm import scenario as S


class TestAlphaVar:
    def test_two_by_two(self):
        est = mc.alpha_var_mc([[1, -1], [0, 2]])
        assert est.value == pytest.approx(0.5)
        assert est.trials == 2

    def test_constant_cells(self):
        assert mc.alpha_var_mc(np.full((5, 3), 2.5)).value == pytest.approx(-2.5)

    def test_uniform_population_analytic(self):
        # E min of a independent uniforms is 1/(a+1)
        rng = np.random.default_rng(0)
        a, k = 3, 200_000
        est = mc.alpha_var_mc(rng.random((k, a)))
        assert abs(est.value - (-0.25)) < 3 * est.std_error
        assert est.std_error < 0.002

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.alpha_var_mc(np.empty((0, 3)))


class TestBetaVar:
    def test_full_order_is_grand_mean(self):
        x = np.arange(12.0).reshape(3, 4)
        assert mc.beta_var_mc(x, 4).value == pytest.approx(-x.mean())

    def test_order_one_reduces_to_minimum(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 6))
        assert mc.beta_var_mc(x, 1).value == mc.alpha_var_mc(x).value

    def test_uniform_population_two_of_three(self):
        # mean of the two smallest of three uniforms: (1/4 + 2/4)/2 = 3/8
        rng = np.random.default_rng(2)
        est = mc.beta_var_mc(rng.random((200_000, 3)), 2)
        assert abs(est.value - (-0.375)) < 3 * est.std_error

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mc.beta_var_mc(np.ones((2, 3)), 4)


class TestContributions:
    def test_argmin_readoff(self):
        est = mc.alpha_contribution_mc([[5, 7], [3, 9]], [[1, -1], [0, 2]])
        assert est.value == pytest.approx(-5.0)

    def test_self_contribution_matches_own_risk(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(1000, 4))
        assert mc.alpha_contribution_mc(w, w).value == mc.alpha_var_mc(w).value
        assert mc.beta_contribution_mc(w, w, 3).value == mc.beta_var_mc(w, 3).value

    def test_independent_mean_zero_vanishes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(150_000, 5))
        w = rng.normal(size=(150_000, 5))
        est = mc.alpha_contribution_mc(x, w)
        assert abs(est.value) < 3 * est.std_error

    def test_contribution_dominates_standalone_utility_in_expectation(self):
        # contribution utility of x to any w is at least x's own utility;
        # asserted in expectation on a correlated Gaussian fixture
        rng = np.random.default_rng(14)
        k, a, corr = 120_000, 10, 0.4
        z = rng.normal(size=(k, a, 2))
        w = z[..., 0]
        x = corr * z[..., 0] + math.sqrt(1 - corr ** 2) * z[..., 1]
        contrib = mc.alpha_contribution_mc(x, w)
        own = mc.alpha_var_mc(x)
        # utilities are minus the reported risks
        assert -contrib.value >= -own.value - 3 * (contrib.std_error + own.std_error)

    def test_gaussian_closed_form(self):
        # contribution utility for correlated Gaussians: -gamma * corr
        rng = np.random.default_rng(5)
        k, a, b, corr = 150_000, 20, 5, 0.6
        z = rng.normal(size=(k, a, 2))
        w = z[..., 0]
        x = corr * z[..., 0] + math.sqrt(1 - corr ** 2) * z[..., 1]
        est = mc.beta_contribution_mc(x, w, b)
        gm = D.gaussian_multiplier(D.beta(a, b))
        assert abs(est.value - corr * gm) < 3 * est.std_error

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mc.alpha_contribution_mc(np.ones((2, 3)), np.ones((2, 4)))


def bits(est):
    return (est.value.hex(), est.std_error.hex(), est.trials)


# few distinct cell values, so rows hold ties
cells = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def tied_pairs(draw):
    k, a = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    x, w = (np.array(draw(st.lists(cells, min_size=k * a, max_size=k * a))).reshape(k, a)
            for _ in range(2))
    return x, w


class TestOneOrderStatisticPath:
    @settings(max_examples=300, deadline=None)
    @given(tied_pairs())
    def test_alpha_contribution_is_beta_one_bit_for_bit(self, pair):
        x, w = pair
        alpha = mc.alpha_contribution_mc(x, w)
        assert bits(alpha) == bits(mc.beta_contribution_mc(x, w, 1))
        # x read at the first column holding the row minimum of w
        picks = [row_x[min(range(w.shape[1]), key=lambda j: (row_w[j], j))]
                 for row_x, row_w in zip(x.tolist(), w.tolist())]
        assert alpha.value == -math.fsum(picks) / len(picks)

    def test_selected_mean_reads_vector_and_matrix_picks_alike(self):
        x = np.array([[4.0, -1.0, 2.0], [0.5, 3.0, -2.0]])
        assert bits(mc.selected_mean(x, np.array([1, 2]))) == \
            bits(mc.selected_mean(x, np.array([[1], [2]])))
        est = mc.selected_mean(x, np.array([[2, 0], [1, 0]]))
        assert est.value == -((2.0 + 4.0) / 2 + (3.0 + 0.5) / 2) / 2
        assert est.trials == 2


class TestConsistencyWithExactEvaluators:
    def test_alpha_estimator_converges_to_order_statistics_value(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=6)
        probs = rng.dirichlet(np.ones(6))
        dist = S.ScenarioDistribution(vals, probs)
        a, k = 4, 400_000
        draw_idx = rng.choice(6, size=(k, a), p=probs)
        est = mc.alpha_var_mc(vals[draw_idx])
        want = S.beta_var_exact(dist, a, 1)
        assert abs(est.value - want) < 4 * est.std_error


class TestInvariances:
    def test_linearity_in_contributed_position(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(400, 5))
        x1 = rng.normal(size=(400, 5))
        x2 = rng.normal(size=(400, 5))
        a_c, b_c = 1.7, -0.4
        lhs = mc.alpha_contribution_mc(a_c * x1 + b_c * x2, w).value
        rhs = a_c * mc.alpha_contribution_mc(x1, w).value \
            + b_c * mc.alpha_contribution_mc(x2, w).value
        assert lhs == pytest.approx(rhs, abs=1e-12)
        lhs_b = mc.beta_contribution_mc(a_c * x1 + b_c * x2, w, 3).value
        rhs_b = a_c * mc.beta_contribution_mc(x1, w, 3).value \
            + b_c * mc.beta_contribution_mc(x2, w, 3).value
        assert lhs_b == pytest.approx(rhs_b, abs=1e-12)

    def test_row_permutation_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2000, 6))
        w = rng.normal(size=(2000, 6))
        perm = rng.permutation(2000)
        assert mc.alpha_var_mc(x[perm]).value == mc.alpha_var_mc(x).value
        assert mc.beta_var_mc(x[perm], 3).value == mc.beta_var_mc(x, 3).value
        assert mc.alpha_contribution_mc(x[perm], w[perm]).value == \
            mc.alpha_contribution_mc(x, w).value

    def test_column_permutation_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2000, 6))
        w = rng.normal(size=(2000, 6))
        cols = rng.permutation(6)
        assert mc.alpha_var_mc(x[:, cols]).value == mc.alpha_var_mc(x).value
        assert mc.beta_var_mc(x[:, cols], 4).value == mc.beta_var_mc(x, 4).value
        assert mc.beta_contribution_mc(x[:, cols], w[:, cols], 2).value == \
            mc.beta_contribution_mc(x, w, 2).value


class TestWeightedContributionEmpirical:
    def test_three_point_example(self):
        got, _ = mc.weighted_contribution_empirical(
            [10, 4, -6], [3, -1, 2], None, D.tail(2 / 3))
        assert got == pytest.approx(1.0)

    def test_self_contribution_is_weighted_var(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=40)
        probs = rng.dirichlet(np.ones(40))
        for m in (D.tail(0.3), D.beta(6, 2)):
            got, _ = mc.weighted_contribution_empirical(w, w, probs, m)
            want = S.weighted_var(S.ScenarioDistribution(w, probs), m)
            assert got == pytest.approx(want, abs=1e-12)

    def test_identity_measure_is_minus_weighted_mean(self):
        x = np.array([1.0, 2.0, 4.0])
        nu = np.array([0.5, 0.25, 0.25])
        got, _ = mc.weighted_contribution_empirical(x, np.array([9., 8., 7.]), nu,
                                                    D.mixture([(1.0, 1.0)]))
        assert got == pytest.approx(-float(nu @ x))

    def test_tied_reference_values_average_the_block(self):
        # x averaged over the tied block with probability weights
        x = np.array([0.0, 10.0, -4.0])
        w = np.array([1.0, 1.0, 5.0])
        nu = np.array([0.25, 0.25, 0.5])
        got, _ = mc.weighted_contribution_empirical(x, w, nu, D.tail(0.5))
        assert got == pytest.approx(-5.0)  # block mean 5.0 takes all tail mass

    def test_tie_order_invariance(self):
        x = np.array([0.0, 10.0, -4.0])
        w = np.array([1.0, 1.0, 5.0])
        nu = np.array([0.25, 0.25, 0.5])
        got1 = mc.weighted_contribution_empirical(x, w, nu, D.tail(0.7))
        got2 = mc.weighted_contribution_empirical(x[[1, 0, 2]], w[[1, 0, 2]],
                                                  nu[[1, 0, 2]], D.tail(0.7))
        assert got1 == got2
