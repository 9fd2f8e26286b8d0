"""Equilibrium prices, limit trades, decentralized-optimality verification."""

import math

import numpy as np
import pytest

from crm import distortion as D
from crm import scenario as S
from crm import sharing as SH
from crm.errors import InfeasibleError

from testkit import gauss_grid_panel

GM50 = D.gaussian_multiplier(D.tail(0.5))


def grid_firm(n_per_dim=400, corr=None, rewards=(1.0, 1.0), limit=1.0,
              allocation=None):
    """Two one-asset desks over a deterministic Gaussian-grid scenario panel."""
    chol = None
    if corr is not None:
        chol = np.linalg.cholesky(np.array([[1.0, corr], [corr, 1.0]]))
    panel, probs = gauss_grid_panel(n_per_dim, 2, chol=chol)
    desks = [SH.Desk(panel=panel[:, :1], rewards=np.array([rewards[0]]), name="d1"),
             SH.Desk(panel=panel[:, 1:], rewards=np.array([rewards[1]]), name="d2")]
    alloc = np.array(allocation) if allocation is not None else \
        np.array([[limit / 2.0], [limit / 2.0]])
    firm = SH.FirmInstance(desks=desks, measures=[D.tail(0.5)],
                           limits=np.array([limit]), allocation=alloc, probs=probs)
    return firm, panel, probs


def bind_exactly(firm, holdings, measure=None):
    """Rescale holdings so the first firm limit is exactly binding."""
    measure = measure or firm.measures[0]
    series = firm.firm_series(holdings)
    risk = S.weighted_var(S.ScenarioDistribution(series, firm.probs), measure)
    scale = firm.limits[0] / risk
    return [h * scale for h in holdings]


class TestSolveFirm:
    def test_symmetric_firm_splits_the_optimum_per_desk(self):
        # two independent unit Gaussian desks under tail(0.5) <= 1: each holds
        # 1 / (sqrt(2) * gamma), and the firm's limit binds
        firm, _, _ = grid_firm(n_per_dim=200)
        sol, holdings = SH.solve_firm(firm, max_iter=200)
        assert sol.converged
        assert [h.shape for h in holdings] == [(1,), (1,)]
        assert np.concatenate(holdings).tolist() == sol.h.tolist()
        for h in holdings:
            assert h[0] == pytest.approx(1.0 / (math.sqrt(2.0) * GM50), rel=5e-3)
        assert sol.risks[0] == pytest.approx(1.0, rel=1e-6)

    def test_desk_box_bounds_its_holdings(self):
        firm, _, _ = grid_firm(n_per_dim=200)
        boxed = SH.FirmInstance(
            desks=[firm.desks[0], SH.Desk(panel=firm.desks[1].panel, rewards=[1.0],
                                          bounds=[[-0.1, 0.1]], name="d2")],
            measures=firm.measures, limits=firm.limits, allocation=firm.allocation,
            probs=firm.probs)
        _, holdings = SH.solve_firm(boxed, max_iter=200)
        assert holdings[1][0] == pytest.approx(0.1)
        assert holdings[0][0] > 0.1


class TestEquilibriumPrices:
    def test_symmetric_optimum_prices_and_residual(self):
        firm, _, _ = grid_firm()
        h = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        prices, residual, risks = SH.equilibrium_prices(firm, h)
        assert risks[0] == pytest.approx(1.0, abs=1e-9)
        assert prices[0] == pytest.approx(math.sqrt(2.0) / GM50, rel=2e-3)
        assert residual <= 1e-3

    def test_perturbation_raises_residual_monotonically(self):
        firm, _, _ = grid_firm()
        res = []
        for pert in (1.0, 1.05, 1.10, 1.20):
            h = bind_exactly(firm, [np.array([pert]), np.array([1.0 / pert])])
            _, r, _ = SH.equilibrium_prices(firm, h)
            res.append(r)
        assert res[0] <= 1e-3
        assert res[1] < res[2] < res[3]
        assert res[3] > 0.05

    def test_zero_rewards_zero_prices(self):
        firm, _, _ = grid_firm(rewards=(0.0, 0.0))
        h = [np.array([0.0]), np.array([0.0])]
        prices, residual, risks = SH.equilibrium_prices(firm, h)
        assert prices.tolist() == [0.0]
        assert residual == 0.0
        assert risks[0] == pytest.approx(0.0, abs=1e-12)

    def test_slack_constraint_priced_at_zero(self):
        firm, _, _ = grid_firm(limit=10.0)
        h = [np.array([0.1]), np.array([0.1])]  # risk far below the limit
        prices, residual, _ = SH.equilibrium_prices(firm, h)
        assert prices[0] == 0.0
        assert residual == pytest.approx(1.0)  # rewards unexplained


class TestLimitTrades:
    def test_binding_misallocation_example(self):
        # contributions (0.8, 0.2) against limits (0.5, 0.5), firm binding
        firm, _, _ = grid_firm(allocation=[[0.5], [0.5]])
        h = bind_exactly(firm, [np.array([4.0]), np.array([1.0])])
        series = firm.firm_series(h)
        from crm.contribution import extreme_measure
        ew = extreme_measure(series, firm.probs, firm.measures[0])
        contrib = np.array([-(ew.weights @ (d.panel @ hh))
                            for d, hh in zip(firm.desks, h)])
        trades = SH.limit_trades(firm, h)
        assert trades.sum(axis=0)[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(trades[:, 0], contrib - 0.5, atol=1e-9)

    def test_already_matching_allocation_trades_nothing(self):
        firm, _, _ = grid_firm()
        h = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        series = firm.firm_series(h)
        from crm.contribution import extreme_measure
        ew = extreme_measure(series, firm.probs, firm.measures[0])
        contrib = np.array([[-(ew.weights @ (d.panel @ hh))]
                            for d, hh in zip(firm.desks, h)])
        firm2 = SH.FirmInstance(desks=firm.desks, measures=firm.measures,
                                limits=firm.limits,
                                allocation=contrib * (1.0 / contrib.sum()),
                                probs=firm.probs)
        trades = SH.limit_trades(firm2, h)
        assert np.allclose(trades, 0.0, atol=1e-9)

    def test_infeasible_when_firm_breaches_limit(self):
        firm, _, _ = grid_firm()
        h = [np.array([5.0]), np.array([5.0])]
        with pytest.raises(InfeasibleError):
            SH.limit_trades(firm, h)

    def test_column_sums_vanish_with_slack(self):
        firm, _, _ = grid_firm(limit=2.0)
        h = bind_exactly(firm, [np.array([1.0]), np.array([0.5])])
        h = [hh * 0.7 for hh in h]  # leave slack
        trades = SH.limit_trades(firm, h)
        assert abs(trades.sum(axis=0)[0]) < 1e-12


class TestVerifyEquilibrium:
    def test_full_pass_at_optimum(self):
        firm, _, _ = grid_firm()
        h = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        prices, residual, _ = SH.equilibrium_prices(firm, h)
        trades = SH.limit_trades(firm, h)
        rep = SH.verify_equilibrium(firm, h, trades, prices)
        assert rep.all_conditions
        # per-desk linearized improvement bounded by the price residual
        assert rep.max_desk_improvement <= 5e-3
        assert rep.total_net_reward == pytest.approx(
            sum(float(h[i][0]) for i in range(2)), rel=1e-12)

    def test_allocation_independence(self):
        firm, panel, probs = grid_firm()
        h = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        rng = np.random.default_rng(0)
        prices0, nets = None, []
        for _ in range(10):
            split = float(rng.uniform(0.0, 1.0))
            firm_i = SH.FirmInstance(desks=firm.desks, measures=firm.measures,
                                     limits=firm.limits,
                                     allocation=np.array([[split], [1.0 - split]]),
                                     probs=probs)
            prices, _, _ = SH.equilibrium_prices(firm_i, h)
            trades = SH.limit_trades(firm_i, h)
            rep = SH.verify_equilibrium(firm_i, h, trades, prices)
            if prices0 is None:
                prices0 = prices
            assert np.allclose(prices, prices0, atol=1e-9)
            nets.append(rep.total_net_reward)
        assert max(nets) - min(nets) < 1e-9

    def test_boundary_contact_reported(self):
        firm, panel, probs = grid_firm()
        desks = [SH.Desk(panel=firm.desks[0].panel, rewards=np.array([1.0]),
                         bounds=np.array([[0.0, 0.5]]), name="boxed"),
                 firm.desks[1]]
        firm_b = SH.FirmInstance(desks=desks, measures=firm.measures,
                                 limits=firm.limits,
                                 allocation=firm.allocation, probs=probs)
        h = [np.array([0.5]), np.array([0.3])]
        prices, _, _ = SH.equilibrium_prices(firm_b, h)
        trades = SH.limit_trades(firm_b, h)
        rep = SH.verify_equilibrium(firm_b, h, trades, prices)
        assert rep.boundary_contact == (0,)


class TestDecentralizationCounterexamples:
    def test_outstanding_risk_limits_miss_the_optimum(self):
        # correlated assets: the globally optimal direction follows the
        # inverse covariance, while outstanding-risk desk problems scale each
        # asset independently and keep the naive direction
        corr = 0.8
        c = np.array([[1.0, corr], [corr, 1.0]])
        e = np.array([1.0, 1.0])
        h_global = np.linalg.solve(c, e)          # direction (1,1)/(1+corr)
        firm, panel, probs = grid_firm(corr=corr)
        # desk problems with own-risk limits c^n: solution direction is e_n
        # scaled to its limit; the combined portfolio direction is (1, 1)
        h_desks = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        # mismatch is reported against the global direction
        dir_desks = np.array([h_desks[0][0], h_desks[1][0]])
        cos = float(dir_desks @ h_global
                    / (np.linalg.norm(dir_desks) * np.linalg.norm(h_global)))
        # here they coincide by symmetry; an asymmetric reward breaks it
        e2 = np.array([1.0, 0.25])
        h_global2 = np.linalg.solve(c, e2)
        firm2, _, _ = grid_firm(corr=corr, rewards=(1.0, 0.25))
        rho1 = S.weighted_var(S.ScenarioDistribution(
            firm2.desks[0].panel[:, 0], probs), D.tail(0.5))
        rho2 = S.weighted_var(S.ScenarioDistribution(
            firm2.desks[1].panel[:, 0], probs), D.tail(0.5))
        # outstanding-risk decentralization: each desk maxes out its own limit
        h_out = [np.array([0.5 / rho1]), np.array([0.5 / rho2])]
        dir_out = np.array([h_out[0][0], h_out[1][0]])
        cos2 = float(dir_out @ h_global2
                     / (np.linalg.norm(dir_out) * np.linalg.norm(h_global2)))
        assert cos2 < 0.999  # directions genuinely disagree
        # and the global direction scaled to the same firm risk earns more
        h_opt = bind_exactly(firm2, [np.array([h_global2[0]]),
                                     np.array([h_global2[1]])])
        h_out_b = bind_exactly(firm2, h_out)
        reward_opt = h_opt[0][0] * 1.0 + h_opt[1][0] * 0.25
        reward_out = h_out_b[0][0] * 1.0 + h_out_b[1][0] * 0.25
        assert reward_opt > reward_out * (1.0 + 1e-4)

    def test_fixed_contribution_limits_leave_a_gap(self):
        # desks individually optimal against frozen contribution limits, yet
        # the reward falls short of the traded (global) optimum
        corr = 0.6
        firm, panel, probs = grid_firm(corr=corr)
        # deliberately lopsided but binding portfolio
        h_bad = bind_exactly(firm, [np.array([3.0]), np.array([0.4])])
        series = firm.firm_series(h_bad)
        from crm.contribution import extreme_measure
        ew = extreme_measure(series, probs, firm.measures[0])
        contrib = np.array([-(ew.weights @ (d.panel @ hh))
                            for d, hh in zip(firm.desks, h_bad)])
        # per-desk problems: max h s.t. h * unit_contribution <= contrib_n;
        # each desk's optimum is exactly its current holding
        unit_contrib = np.array([-(ew.weights @ firm.desks[i].panel[:, 0])
                                 for i in range(2)])
        assert np.all(unit_contrib > 0)
        h_solutions = contrib / unit_contrib
        assert np.allclose(h_solutions, [h_bad[0][0], h_bad[1][0]], rtol=1e-9)
        # the symmetric global optimum strictly beats it
        h_opt = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        gap = (h_opt[0][0] + h_opt[1][0]) - (h_bad[0][0] + h_bad[1][0])
        assert gap > 0.01

    def test_traded_limits_restore_the_optimum(self):
        # with prices and trades, the lopsided start is detected as
        # non-optimal (large residual), the symmetric point is certified
        firm, _, _ = grid_firm(corr=0.6)
        h_bad = bind_exactly(firm, [np.array([3.0]), np.array([0.4])])
        _, res_bad, _ = SH.equilibrium_prices(firm, h_bad)
        h_opt = bind_exactly(firm, [np.array([1.0]), np.array([1.0])])
        prices, res_opt, _ = SH.equilibrium_prices(firm, h_opt)
        assert res_opt <= 1e-3
        assert res_bad > 10 * res_opt
        trades = SH.limit_trades(firm, h_opt)
        rep = SH.verify_equilibrium(firm, h_opt, trades, prices)
        assert rep.all_conditions


class TestValidation:
    def test_allocation_must_sum_to_limits(self):
        firm, panel, probs = grid_firm()
        with pytest.raises(ValueError):
            SH.FirmInstance(desks=firm.desks, measures=firm.measures,
                            limits=np.array([1.0]),
                            allocation=np.array([[0.7], [0.7]]), probs=probs)

    def test_desk_scenario_grids_must_match(self):
        firm, panel, probs = grid_firm()
        bad = SH.Desk(panel=panel[:100, :1], rewards=np.array([1.0]))
        with pytest.raises(ValueError):
            SH.FirmInstance(desks=[firm.desks[0], bad], measures=firm.measures,
                            limits=np.array([1.0]),
                            allocation=np.array([[0.5], [0.5]]), probs=probs)
