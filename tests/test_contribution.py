"""Extreme weights, contributions, capital allocation, tail correlation."""

import math

import numpy as np
import pytest

from crm import contribution as C
from crm import distortion as D
from crm import mc as M
from crm import scenario as S


class TestExtremeMeasure:
    def test_three_point_tail(self):
        ew = C.extreme_measure([3, -1, 2], None, D.tail(2 / 3))
        assert np.allclose(ew.weights, [0.0, 0.5, 0.5])
        assert ew.utility == pytest.approx(0.5)

    def test_identity_measure_returns_original_probs(self):
        probs = np.array([0.2, 0.5, 0.3])
        ew = C.extreme_measure([3.0, -1.0, 2.0], probs, D.mixture([(1.0, 1.0)]))
        assert np.allclose(ew.weights, probs)

    def test_point_mass(self):
        ew = C.extreme_measure([4.2], None, D.beta(5, 2))
        assert ew.weights.tolist() == [1.0]

    def test_realizes_the_infimum(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            w = rng.normal(size=n)
            probs = rng.dirichlet(np.ones(n))
            for m in (D.tail(0.3), D.beta(6, 2)):
                ew = C.extreme_measure(w, probs, m)
                assert ew.weights.min() >= -1e-15
                assert ew.weights.sum() == pytest.approx(1.0, abs=1e-12)
                want = -S.weighted_var(S.ScenarioDistribution(w, probs), m)
                assert ew.utility == pytest.approx(want, abs=1e-10)

    def test_tied_block_shares_mass_proportionally(self):
        w = np.array([1.0, 1.0, 5.0])
        probs = np.array([0.1, 0.3, 0.6])
        ew = C.extreme_measure(w, probs, D.tail(0.4))
        assert ew.weights[0] / ew.weights[1] == pytest.approx(1.0 / 3.0)
        assert ew.weights[2] == pytest.approx(0.0)


class TestRiskContribution:
    def test_self_contribution(self):
        d = [3, -1, 2]
        assert C.risk_contribution(d, d, None, D.tail(2 / 3)) == pytest.approx(-0.5)

    def test_constant_reference_gives_standalone_risk(self):
        x = [3.0, -1.0, 2.0]
        got = C.risk_contribution(x, [7.0, 7.0, 7.0], None, D.tail(2 / 3))
        want = S.weighted_var(S.ScenarioDistribution(x), D.tail(2 / 3))
        assert got == pytest.approx(want, abs=1e-12)

    def test_three_point_example(self):
        got = C.risk_contribution([10, 4, -6], [3, -1, 2], None, D.tail(2 / 3))
        assert got == pytest.approx(1.0)

    def test_utility_dominance(self, measure_zoo):
        rng = np.random.default_rng(1)
        for _ in range(80):
            n = int(rng.integers(2, 12))
            x = rng.normal(size=n).round(1)  # ties included
            w = rng.normal(size=n).round(1)
            probs = rng.dirichlet(np.ones(n))
            for m in measure_zoo.values():
                uc = -C.risk_contribution(x, w, probs, m)
                u = -S.weighted_var(S.ScenarioDistribution(x, probs), m)
                assert uc >= u - 1e-10

    def test_directional_derivative_identity(self, measure_zoo):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            x = rng.normal(size=n)
            w = rng.normal(size=n)  # continuous: generic, tie-free
            probs = rng.dirichlet(np.ones(n))
            for m in measure_zoo.values():
                uc = -C.risk_contribution(x, w, probs, m)
                u0 = -S.weighted_var(S.ScenarioDistribution(w, probs), m)
                quots = []
                for eps in (1e-3, 1e-4, 1e-5):
                    u1 = -S.weighted_var(S.ScenarioDistribution(w + eps * x, probs), m)
                    quots.append((u1 - u0) / eps)
                # Richardson extrapolation of the last two quotients
                extrap = quots[-1] + (quots[-1] - quots[-2]) / 9.0
                assert extrap == pytest.approx(uc, abs=1e-6)

    def test_zero_conditional_mean_means_zero_contribution(self):
        # x averages to zero at every reference level; levels of mass 0.1 keep
        # each grid level aligned with a block boundary, mirroring the
        # continuous case where reference ties never split tail mass
        w = np.repeat(np.arange(10.0), 2)
        x = np.tile([1.0, -1.0], 10)
        probs = np.full(20, 0.05)
        for lam in np.arange(0.1, 1.05, 0.1):
            got = C.risk_contribution(x, w, probs, D.tail(float(lam)))
            assert abs(got) < 1e-10


class TestCapitalAllocation:
    def test_single_component_is_total_risk(self):
        w = [1.0, 2.0, -3.0]
        allocs, _, residual = C.capital_allocation([w], None, D.tail(0.5))
        assert allocs[0] == pytest.approx(
            S.weighted_var(S.ScenarioDistribution(w), D.tail(0.5)), abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_additivity(self, measure_zoo):
        rng = np.random.default_rng(3)
        for m in measure_zoo.values():
            comps = [rng.normal(size=30) for _ in range(5)]
            probs = rng.dirichlet(np.ones(30))
            _, _, residual = C.capital_allocation(comps, probs, m)
            assert abs(residual) < 1e-10

    def test_comonotone_components_split_standalone(self):
        base = np.array([-2.0, 0.5, 1.0, 3.0])
        comps = [base, np.exp(base)]  # comonotone pair
        allocs, _, residual = C.capital_allocation(comps, None, D.beta(5, 2))
        for c, a in zip(comps, allocs):
            assert a == pytest.approx(
                S.weighted_var(S.ScenarioDistribution(c), D.beta(5, 2)), abs=1e-10)
        assert abs(residual) < 1e-10


@pytest.mark.parametrize("probs", [[0.5, 0.25, 0.5], [0.5, 0.75, -0.25],
                                   [0.5, float("nan"), 0.5]])
def test_every_exact_call_rejects_probs_that_are_no_law(probs):
    w, x = [1.0, -2.0, 0.5], [0.0, 1.0, 2.0]
    calls = [lambda: C.extreme_measure(w, probs, D.tail(0.5)),
             lambda: C.capital_allocation([w, x], probs, D.tail(0.5)),
             lambda: C.risk_contribution(x, w, probs, D.tail(0.5)),
             lambda: M.weighted_contribution_empirical(x, w, probs, D.tail(0.5)),
             lambda: S.ScenarioDistribution(w, probs)]
    for call in calls:
        with pytest.raises(ValueError, match="probabilities must"):
            call()


class TestTailCorrelation:
    def test_self_is_one(self):
        x = [-1.0, 2.0, -3.0]
        assert C.tail_correlation(x, x, None, D.tail(0.5)) == pytest.approx(1.0)

    def test_comonotone_full_support_is_one(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=25)
        x = w ** 3
        probs = rng.dirichlet(np.ones(25))
        for m in (D.beta(3.5, 1.2), D.beta(6, 2)):
            assert C.tail_correlation(x, w, probs, m) == pytest.approx(1.0, abs=1e-9)

    def test_at_most_one(self, measure_zoo):
        rng = np.random.default_rng(5)
        done = 0
        while done < 60:
            n = int(rng.integers(3, 12))
            x = rng.normal(size=n)
            w = rng.normal(size=n)
            probs = rng.dirichlet(np.ones(n))
            for m in measure_zoo.values():
                try:
                    k = C.tail_correlation(x, w, probs, m)
                except ValueError:
                    continue
                assert k <= 1.0 + 1e-12
                done += 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        w = rng.normal(size=30)
        probs = rng.dirichlet(np.ones(30))
        m = D.beta(6, 2)
        base = C.tail_correlation(x, w, probs, m)
        assert C.tail_correlation(x, w ** 3, probs, m) == pytest.approx(base, abs=1e-12)
        assert C.tail_correlation(x, np.exp(w), probs, m) == pytest.approx(base, abs=1e-12)

    def test_undefined_for_riskless_position(self):
        with pytest.raises(ValueError):
            C.tail_correlation([1.0, 2.0], [0.0, 1.0], None, D.tail(0.5))


class TestGaussianContribution:
    def test_independence_gives_own_mean(self):
        assert C.gaussian_contribution(1.3, 0.0, 2.0, 2.0) == pytest.approx(1.3)

    def test_self_contribution_is_gaussian_utility(self):
        mean_w, var_w, gm = 0.4, 2.25, 1.8
        got = C.gaussian_contribution(mean_w, var_w, var_w, gm)
        assert got == pytest.approx(mean_w - gm * math.sqrt(var_w))

    def test_worked_example(self):
        assert C.gaussian_contribution(0.0, 0.6, 1.0, 2.0627) == pytest.approx(-1.23762)

    def test_validation(self):
        with pytest.raises(ValueError):
            C.gaussian_contribution(0.0, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            C.gaussian_contribution(0.0, 0.1, 1.0, -1.0)
