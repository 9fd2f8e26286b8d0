"""Conditional-mean regression, factor risk, and the model diagnostic."""

import math
import tracemalloc

import numpy as np
import pytest

from crm import distortion as D
from crm import factor as F
from crm import scenario as S
from crm.contribution import risk_contribution


class TestRegression:
    def test_noiseless_linear_interior_accuracy(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-1, 1, 20_000)
        reg = F.fit_conditional_mean(y, 2.0 * y, "kernel")
        grid = np.linspace(-0.7, 0.7, 29)[:, None]
        assert np.max(np.abs(reg.predict(grid) - 2.0 * grid[:, 0])) < 1e-2

    def test_constant_target_is_exact(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=500)
        reg = F.fit_conditional_mean(y, np.full(500, 4.5), "kernel")
        assert np.allclose(reg.predict(y[:50, None]), 4.5)

    def test_gaussian_population_slope(self):
        rng = np.random.default_rng(2)
        t = 40_000
        y = rng.normal(size=t)
        x = 0.8 * y + 0.6 * rng.normal(size=t)
        reg = F.fit_conditional_mean(y, x, "kernel")
        grid = np.linspace(-1.5, 1.5, 41)
        slope = np.polyfit(grid, reg.predict(grid[:, None]), 1)[0]
        assert abs(slope - 0.8) < 0.05

    def test_degenerate_factor_falls_back_to_mean(self):
        reg = F.fit_conditional_mean(np.zeros(40), np.arange(40.0), "kernel")
        assert reg.predict(np.array([[0.0], [1.0]])) == pytest.approx([19.5, 19.5])

    def test_far_query_collapses_to_nearest_sample(self):
        y = np.array([0.0, 1.0, 2.0])
        x = np.array([5.0, 6.0, 7.0])
        reg = F.fit_conditional_mean(y, x, "kernel", bandwidth=0.1)
        assert reg.predict(np.array([[100.0]]))[0] == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize("query", [4.999, 5.0, 5.0005])
    def test_gap_query_weighs_the_bins_on_both_sides(self, query):
        # 16 samples make 16 bins of width 0.625 on [0, 10]; only bins 0, 1, 14
        # and 15 hold data. The gap between the centres 0.9375 and 9.0625 spans
        # 162 bandwidths, so every weight of a query in it underflows against
        # the empty bin nearest to it: a query there weighs the occupied bins
        # against the nearest of them, here bins 1 and 14 on either side
        y = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                      9.3, 9.4, 9.5, 9.6, 9.7, 9.8, 9.9, 10.0])
        x = np.arange(16.0)
        h = 0.05
        centers, counts, sums = [0.3125, 0.9375, 9.0625, 9.6875], [7, 1, 1, 7], [21, 7, 8, 84]
        logw = [-0.5 * ((query - c) / h) ** 2 for c in centers]
        wgt = [math.exp(lw - max(logw)) for lw in logw]
        want = (math.fsum(w * s for w, s in zip(wgt, sums))
                / math.fsum(w * n for w, n in zip(wgt, counts)))
        got = F.fit_conditional_mean(y, x, "kernel", bandwidth=h).predict(np.array([query]))
        assert 7.0 < want < 8.0
        assert got[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("constant", [0.0, 0.1, 1.7])
    @pytest.mark.parametrize("bandwidth", [None, 0.3])
    def test_constant_factor_column_is_left_out(self, constant, bandwidth):
        # a constant column tells no samples apart: the fit is the one on the
        # other columns, bit for bit, and not the global mean
        rng = np.random.default_rng(22)
        f = rng.standard_t(4, size=(500, 2))
        x = (f @ [1.0, -0.5])[:, None] + rng.normal(size=(500, 3)) * [0.1, 1.0, 3.0]
        for cols in ([0], [0, 1]):
            with_g = np.insert(f[:, cols], 1, constant, axis=1)
            want = F.fit_conditional_mean(f[:, cols], x, "kernel", bandwidth=bandwidth)
            got = F.fit_conditional_mean(with_g, x, "kernel", bandwidth=bandwidth)
            assert np.array_equal(got.predict(with_g), want.predict(f[:, cols]))
        g = np.full((500, 2), constant)
        reg = F.fit_conditional_mean(g, x, "kernel", bandwidth=bandwidth)
        assert np.allclose(reg.predict(g[:2]), x.mean(axis=0), rtol=1e-14, atol=0.0)

    def test_knn(self):
        y = np.arange(10.0)
        x = y * 3.0
        reg = F.fit_conditional_mean(y, x, "knn", k=1)
        assert reg.predict(np.array([[4.2]]))[0] == pytest.approx(12.0)

    def test_multidimensional_kernel(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(-1, 1, size=(8000, 2))
        x = y[:, 0] - y[:, 1]
        reg = F.fit_conditional_mean(y, x, "kernel")
        pts = np.array([[0.2, -0.1], [-0.4, 0.3]])
        assert np.allclose(reg.predict(pts), pts[:, 0] - pts[:, 1], atol=0.05)

    def test_dimension_cap(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            F.fit_conditional_mean(rng.normal(size=(50, 6)), rng.normal(size=50), "auto")

    def test_misaligned_targets_rejected(self):
        y = np.arange(10.0)
        for x in (np.zeros(9), np.zeros((9, 2)), np.zeros((10, 0)), np.zeros((10, 2, 1))):
            with pytest.raises(ValueError, match="align"):
                F.fit_conditional_mean(y, x, "kernel")

    def test_predict_memory_is_set_by_the_block_not_t(self):
        # the dense T x 2048 float64 weight matrix would be 328 MB at T = 20,000
        rng = np.random.default_rng(18)
        y = rng.normal(size=20_000)
        reg = F.fit_conditional_mean(y, rng.normal(size=(20_000, 2)), "kernel")
        tracemalloc.start()
        try:
            reg.predict(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_nd_predict_memory_is_set_by_the_group_not_t(self):
        # a dense T x T float64 distance matrix would be 3.2 GB at T = 20,000
        rng = np.random.default_rng(19)
        y = rng.normal(size=(20_000, 2))
        reg = F.fit_conditional_mean(y, rng.normal(size=(20_000, 2)), "kernel")
        tracemalloc.start()
        try:
            reg.predict(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        y = np.random.default_rng(20).normal(size=200)
        with pytest.raises(ValueError, match="finite and > 0"):
            F.fit_conditional_mean(y, y, "kernel", bandwidth=bandwidth)

    @pytest.mark.parametrize("t, m, k", [(100, 1, 6), (2_500, 1, 23), (2_500, 2, 14),
                                         (50, 5, 5)])
    def test_default_knn_count_follows_t_and_dimension(self, t, m, k):
        # round(sqrt(T ** (4 / (4 + m)))), at least 5 and at most max(2, T // 10)
        y = np.random.default_rng(21).normal(size=(t, m))
        assert F.fit_conditional_mean(y, y[:, 0], "knn").k == k

    def test_knn_ties_keep_the_lowest_indices(self):
        # sixteen samples tie at distance 1 from the query 0.0: k = 2 keeps the
        # sample at 0.0 and row 1, the first of them (cKDTree picks row 15)
        y = np.array([0.0] + [1.0, -1.0] * 8)
        reg = F.fit_conditional_mean(y, np.arange(17.0), "knn", k=2)
        assert reg.predict(np.array([[0.0]]))[0] == 0.5

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            F.fit_conditional_mean(np.array([1.0]), np.array([1.0]), "kernel")


class TestFactorRisk:
    def test_independent_position_risks_minus_mean(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=300)
        # the conditional mean of an x independent of y is its mean, here 2.0
        got = S.weighted_var(S.ScenarioDistribution(np.full(y.size, 2.0)), D.tail(0.1))
        assert got == pytest.approx(-2.0)

    def test_gaussian_pair_closed_form(self):
        rng = np.random.default_rng(7)
        t = 100_000
        y = rng.normal(size=t)
        x = 0.7 * y + 0.5 * rng.normal(size=t)
        gm = D.gaussian_multiplier(D.tail(0.05))
        got = S.weighted_var(S.ScenarioDistribution(0.7 * y), D.tail(0.05))
        # population: risk of 0.7 * y is gamma * 0.7; tolerance 3 batch SEs
        batches = np.array_split(np.arange(t), 20)
        ests = [S.weighted_var(S.ScenarioDistribution(0.7 * y[b]), D.tail(0.05))
                for b in batches]
        se = np.std(ests, ddof=1) / math.sqrt(len(ests))
        assert abs(got - gm * 0.7) < 3 * se

    def test_dilatation_monotonicity_exact_fixtures(self, measure_zoo):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n_levels = int(rng.integers(2, 6))
            per = int(rng.integers(1, 4))
            labels = np.repeat(np.arange(n_levels), per)
            x = rng.normal(size=labels.size)
            probs = rng.dirichlet(np.ones(labels.size))
            cond = np.array([
                np.dot(x[labels == l], probs[labels == l]) / probs[labels == l].sum()
                for l in labels])
            for m in measure_zoo.values():
                u_f = -S.weighted_var(S.ScenarioDistribution(cond, probs), m)
                u = -S.weighted_var(S.ScenarioDistribution(x, probs), m)
                assert u_f >= u - 1e-10

    def test_information_monotonicity(self, measure_zoo):
        # finer factor information cannot decrease factor risk
        rng = np.random.default_rng(9)
        for _ in range(30):
            coarse = np.repeat(np.arange(3), 4)
            fine = np.arange(12) // 2
            x = rng.normal(size=12)
            probs = rng.dirichlet(np.ones(12))

            def cond_mean(labels):
                return np.array([
                    np.dot(x[labels == l], probs[labels == l]) / probs[labels == l].sum()
                    for l in labels])

            for m in measure_zoo.values():
                u_coarse = -S.weighted_var(S.ScenarioDistribution(cond_mean(coarse), probs), m)
                u_fine = -S.weighted_var(S.ScenarioDistribution(cond_mean(fine), probs), m)
                assert u_fine <= u_coarse + 1e-10

    def test_independent_factors_subadditivity(self, measure_zoo):
        # centered positions on independent factors: joint factor risk is at
        # most the sum of single-factor risks
        rng = np.random.default_rng(10)
        y1 = np.array([-1.0, 1.0])
        y2 = np.array([-2.0, 0.0, 2.0])
        g1 = rng.normal(size=2)
        g1 -= g1.mean()
        g2 = rng.normal(size=3)
        g2 -= g2.mean()
        xs = np.add.outer(g1, g2).ravel()
        probs = np.full(6, 1 / 6)
        for m in measure_zoo.values():
            joint = S.weighted_var(S.ScenarioDistribution(xs, probs), m)
            single = (S.weighted_var(S.ScenarioDistribution(np.repeat(g1, 3), probs), m)
                      + S.weighted_var(S.ScenarioDistribution(np.tile(g2, 2), probs), m))
            assert joint <= single + 1e-10


class TestGaussianFactorRisk:
    def test_zero_covariance_gives_mean(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert F.gaussian_factor_risk(1.5, [0.0, 0.0], c, 2.0) == pytest.approx(1.5)

    def test_near_collinear_two_factor_example(self):
        gm = D.gaussian_multiplier(D.tail(0.05))
        eps = 0.01
        c = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        a = np.array([eps, -eps])  # position: first factor minus second
        multi = F.gaussian_factor_risk(0.0, a, c, gm)
        assert -multi == pytest.approx(gm * math.sqrt(2 * eps), rel=1e-12)
        single = F.gaussian_factor_risk(0.0, [eps], [[1.0]], gm)
        assert -single == pytest.approx(gm * eps, rel=1e-12)
        # the documented reversal: joint risk exceeds the sum of single ones
        assert gm * math.sqrt(2 * eps) > 2 * gm * eps

    def test_one_dimensional_reduction(self):
        gm = 1.7
        got = F.gaussian_factor_risk(0.3, [-0.8], [[4.0]], gm)
        assert got == pytest.approx(0.3 - gm * abs(-0.8) / 2.0)

    def test_singular_covariance_on_range(self):
        # perfectly correlated factors: minimal-norm solve gives the quadratic
        # form of the effective one-dimensional projection
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        a = np.array([0.5, 0.5])  # in the range
        got = F.gaussian_factor_risk(0.0, a, c, 1.0)
        assert got == pytest.approx(-0.5, rel=1e-9)

    def test_out_of_range_covariance_rejected(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            F.gaussian_factor_risk(0.0, [0.5, -0.5], c, 1.0)


class TestFactorContribution:
    def test_self_contribution_equals_factor_risk(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=500)
        w = np.tanh(y)
        got = risk_contribution(w, w, None, D.tail(0.25))
        want = S.weighted_var(S.ScenarioDistribution(w), D.tail(0.25))
        assert got == pytest.approx(want, abs=1e-12)

    def test_constant_reference_gives_factor_risk(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=400)
        x = np.sin(y)
        got, _ = F.factor_contribution(x, np.full(400, 3.0), y, D.tail(0.25),
                                       method="kernel")
        want = F.factor_risk(x, y, D.tail(0.25), method="kernel")
        assert got == pytest.approx(want, abs=1e-10)

    def test_gaussian_triple_closed_form(self):
        # positive loadings on a shared factor: contribution matches
        # -(mean_x - gamma * cov(x, y)/sd(y)) within 3 batch SEs
        rng = np.random.default_rng(13)
        t = 100_000
        y = rng.normal(size=t)
        mean_x, beta_x, beta_w = 0.2, 0.7, 1.3
        gm = D.gaussian_multiplier(D.tail(0.1))

        def f_x(v):
            return mean_x + beta_x * v

        def f_w(v):
            return beta_w * v

        got = risk_contribution(f_x(y), f_w(y), None, D.tail(0.1))
        want = -(mean_x - gm * beta_x)
        batches = np.array_split(np.arange(t), 20)
        ests = [risk_contribution(f_x(y[b]), f_w(y[b]), None, D.tail(0.1))
                for b in batches]
        se = np.std(ests, ddof=1) / math.sqrt(len(ests))
        assert abs(got - want) < 3 * se


class TestFactorModelDiagnostic:
    def test_no_idiosyncratic_noise_is_exactly_one(self):
        rng = np.random.default_rng(14)
        f = rng.normal(size=2000)
        got = F.factor_model_diagnostic(np.ones((7, 1)), np.zeros(7), f, D.tail(0.1))
        assert got == 1.0

    def test_many_positions_approach_one(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=50_000)
        got = F.factor_model_diagnostic(np.ones((10_000, 1)), np.ones(10_000), f,
                                        D.tail(0.1), seed=4)
        assert got >= 0.95

    def test_single_position_dominant_noise_far_from_one(self):
        rng = np.random.default_rng(16)
        f = rng.normal(size=50_000)
        got = F.factor_model_diagnostic(np.ones((1, 1)), [3.0], f, D.tail(0.1), seed=4)
        assert got < 0.5

    def test_degenerate_loadings_rejected(self):
        with pytest.raises(ValueError):
            F.factor_model_diagnostic(np.zeros((3, 1)), np.ones(3),
                                      np.random.default_rng(0).normal(size=100),
                                      D.tail(0.1))
