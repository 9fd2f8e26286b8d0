"""Support function, cutting-plane solver, geometric oracle."""

import math

import numpy as np
import pytest

from crm import distortion as D
from crm import optimize as O
from crm.errors import UnboundedError

from conftest import gauss_grid_panel
from geometric_oracle import geometric_solution


def two_point_panel():
    # single asset taking -1 / +1 with equal probability
    return np.array([[-1.0], [1.0]])


class TestSupportValue:
    def test_zero_portfolio(self):
        rng = np.random.default_rng(0)
        panel = rng.normal(size=(300, 2))
        val, grad = O.support_value(panel, None, np.zeros(2), D.tail(0.5))
        assert val == 0.0
        assert np.allclose(grad, panel.mean(axis=0), atol=1e-12)

    def test_positive_homogeneity_exact(self):
        rng = np.random.default_rng(1)
        panel = rng.normal(size=(500, 3))
        h = np.array([0.4, -0.7, 0.1])
        v1, g1 = O.support_value(panel, None, h, D.beta(6, 2))
        v2, g2 = O.support_value(panel, None, 2.0 * h, D.beta(6, 2))
        assert v2 == pytest.approx(2.0 * v1, abs=1e-12)
        assert np.allclose(g1, g2)

    def test_two_point_tail(self):
        val, grad = O.support_value(two_point_panel(), None, np.array([1.0]),
                                    D.tail(0.5))
        assert val == pytest.approx(-1.0)
        assert grad[0] == pytest.approx(-1.0)

    def test_supergradient_inequality(self):
        # concavity: value(h2) <= value(h1) + <grad(h1), h2 - h1>
        rng = np.random.default_rng(2)
        panel = rng.normal(size=(400, 2))
        m = D.tail(0.3)
        for _ in range(25):
            h1 = rng.normal(size=2)
            h2 = rng.normal(size=2)
            v1, g1 = O.support_value(panel, None, h1, m)
            v2, _ = O.support_value(panel, None, h2, m)
            assert v2 <= v1 + float(g1 @ (h2 - h1)) + 1e-9


class TestSolver:
    def gaussian_problem(self, t=30_000, seed=42, limit=1.0):
        rng = np.random.default_rng(seed)
        panel = rng.standard_normal((t, 2))
        return O.OptimizationProblem(
            rewards=np.array([1.0, 1.0]),
            limits=[O.RiskLimit(D.tail(0.5), limit, panel, "t50")])

    def test_gaussian_fixture_matches_closed_form(self):
        prob = self.gaussian_problem()
        sol = O.solve_portfolio(prob, max_iter=400)
        gm = D.gaussian_multiplier(D.tail(0.5))
        want_obj = math.sqrt(2.0) / gm
        want_h = np.array([1.0, 1.0]) / (math.sqrt(2.0) * gm)
        cos = float(sol.h @ want_h / (np.linalg.norm(sol.h) * np.linalg.norm(want_h)))
        assert cos >= 0.999
        assert abs(sol.objective / want_obj - 1.0) < 0.03
        assert sol.binding == (0,)

    def test_feasibility_and_binding(self):
        prob = self.gaussian_problem(t=5000, seed=3)
        sol = O.solve_portfolio(prob, max_iter=200)
        assert np.all(sol.risks <= 1.0 + 1e-12)
        assert sol.risks.max() == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_constraints_change_nothing(self):
        rng = np.random.default_rng(4)
        panel = rng.standard_normal((4000, 2))
        lim = O.RiskLimit(D.tail(0.5), 1.0, panel, "a")
        p1 = O.OptimizationProblem(np.array([1.0, 0.5]), [lim])
        p2 = O.OptimizationProblem(np.array([1.0, 0.5]),
                                   [lim, O.RiskLimit(D.tail(0.5), 1.0, panel, "b")])
        s1 = O.solve_portfolio(p1, max_iter=200)
        s2 = O.solve_portfolio(p2, max_iter=200)
        assert np.allclose(s1.h, s2.h, atol=1e-12)
        assert s1.objective == pytest.approx(s2.objective, abs=1e-12)

    def test_reward_scaling_invariance(self):
        rng = np.random.default_rng(6)
        panel = rng.standard_normal((4000, 2))
        lims = [O.RiskLimit(D.tail(0.5), 1.0, panel, "")]
        s1 = O.solve_portfolio(O.OptimizationProblem(np.array([1.0, 0.3]), lims),
                               max_iter=300)
        s3 = O.solve_portfolio(O.OptimizationProblem(np.array([3.0, 0.9]), lims),
                               max_iter=300)
        assert np.allclose(s3.h, s1.h, rtol=2e-2, atol=1e-4)
        assert s3.objective == pytest.approx(3.0 * s1.objective, rel=2e-2)

    def test_single_asset_scaling(self):
        # asymmetric risky asset: optimum is the limit over the unit risk
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(3000)
        panel = vals[:, None]
        from crm import scenario as S
        rho = S.weighted_var(S.ScenarioDistribution(vals), D.tail(0.4))
        prob = O.OptimizationProblem(np.array([1.0]),
                                     [O.RiskLimit(D.tail(0.4), 2.0, panel, "")])
        sol = O.solve_portfolio(prob, max_iter=200)
        assert sol.h[0] == pytest.approx(2.0 / rho, rel=1e-6)
        assert sol.objective == pytest.approx(2.0 / rho, rel=1e-6)

    def test_no_good_deals_violation_detected(self):
        # an always-positive asset has negative risk when held long
        panel = np.abs(np.random.default_rng(10).standard_normal((500, 1))) + 0.1
        prob = O.OptimizationProblem(np.array([1.0]),
                                     [O.RiskLimit(D.tail(0.5), 1.0, panel, "")])
        with pytest.raises(UnboundedError):
            O.solve_portfolio(prob, max_iter=50)

    def test_riskless_asset_held_to_its_box(self):
        # nonpositive risk along +e_1 is no violation when the box closes it
        panel = np.abs(np.random.default_rng(10).standard_normal((500, 1))) + 0.1
        prob = O.OptimizationProblem(np.array([1.0]),
                                     [O.RiskLimit(D.tail(0.5), 1.0, panel, "")],
                                     bounds=np.array([[-np.inf, 2.0]]))
        sol = O.solve_portfolio(prob)
        assert sol.converged and sol.h[0] == 2.0 and sol.binding == ()

    @pytest.mark.parametrize("bounds", [[[0.5, 1.0]], [[-1.0, -0.5]], [[1.0, -1.0]],
                                        [[-1.0, 1.0], [-1.0, 1.0]]])
    def test_box_must_contain_zero(self, bounds):
        with pytest.raises(ValueError, match="lo <= 0 <= hi"):
            O.OptimizationProblem(np.array([1.0]),
                                  [O.RiskLimit(D.tail(0.5), 1.0, two_point_panel())],
                                  bounds=np.array(bounds))

    def test_max_iter_caps_lp_rounds(self):
        prob = self.gaussian_problem(t=5000, seed=3)
        sol = O.solve_portfolio(prob, max_iter=1)
        assert sol.iterations == 1 and not sol.converged
        assert np.all(sol.risks <= 1.0 + 1e-12)

    def test_factor_mapped_limit_uses_conditional_panel(self):
        # a second asset independent of the factor carries no factor risk, so
        # the factor-limited optimum loads it arbitrarily; check the factor
        # constraint sees only the first asset
        rng = np.random.default_rng(11)
        t = 8000
        y = rng.standard_normal(t)
        a1 = y
        a2 = rng.standard_normal(t)
        panel = np.column_stack([a1, a2])
        cond_panel = np.column_stack([y, np.zeros(t)])  # E(asset | y)
        lim_plain = O.RiskLimit(D.tail(0.5), 1.0, panel, "plain")
        lim_factor = O.RiskLimit(D.tail(0.5), 1.0, cond_panel, "factor")
        prob = O.OptimizationProblem(np.array([1.0, 1.0]), [lim_plain, lim_factor])
        sol = O.solve_portfolio(prob, max_iter=300)
        assert np.all(sol.risks <= 1.0 + 1e-9)


class TestGeometricSolution:
    def test_disk(self):
        ang = 2.0 * np.pi * np.arange(360) / 360.0
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        sol = geometric_solution(pts, [1.0, 0.0])
        assert np.allclose(sol.boundary_point, [-1.0, 0.0], atol=1e-6)
        assert np.allclose(sol.h, [1.0, 0.0], atol=1e-6)
        assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_square_edge_hit(self):
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        sol = geometric_solution(pts, [1.0, 0.0])
        assert np.allclose(sol.boundary_point, [-1.0, 0.0], atol=1e-12)
        assert np.allclose(sol.h, [1.0, 0.0], atol=1e-12)
        assert sol.value == pytest.approx(1.0)
        assert not sol.degenerate

    def test_scaled_hull_halves_value(self):
        pts = 2.0 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        sol = geometric_solution(pts, [1.0, 0.0])
        assert sol.value == pytest.approx(0.5)

    def test_vertex_hit_is_degenerate(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        sol = geometric_solution(pts, [1.0, 0.0])
        assert sol.degenerate
        assert np.allclose(sol.boundary_point, [-1.0, 0.0], atol=1e-12)
        assert sol.h[1] == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional(self):
        sol = geometric_solution(np.array([[-0.5], [2.0]]), [1.0])
        assert sol.boundary_point[0] == pytest.approx(-0.5)
        assert sol.h[0] == pytest.approx(2.0)
        assert sol.value == pytest.approx(2.0)

    def test_three_dimensional_octahedron(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                        [0, 0, 1], [0, 0, -1]], dtype=float)
        sol = geometric_solution(pts, [0.0, 0.0, 2.0])
        assert np.allclose(sol.boundary_point, [0, 0, -1], atol=1e-12)
        assert sol.value == pytest.approx(2.0)

    def test_origin_not_interior_rejected(self):
        pts = np.array([[1.0, 0.0], [2.0, 1.0], [2.0, -1.0]])
        with pytest.raises(ValueError):
            geometric_solution(pts, [1.0, 0.0])

    def test_agreement_with_solver_on_sampled_generator(self):
        # build the generator of a 2-asset scenario law by sampling support
        # points, then check the ray oracle against the ascent solver
        rng = np.random.default_rng(13)
        panel, probs = gauss_grid_panel(140, 2)
        m = D.tail(0.5)
        dirs = np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 180, endpoint=False)),
                                np.sin(np.linspace(0, 2 * np.pi, 180, endpoint=False))])
        pts = []
        for v in dirs:
            _, grad = O.support_value(panel, probs, v, m)
            pts.append(grad)
        sol_geo = geometric_solution(np.asarray(pts), [1.0, 1.0])
        prob = O.OptimizationProblem(
            rewards=np.array([1.0, 1.0]),
            limits=[O.RiskLimit(m, 1.0, panel, "")], probs=probs)
        sol = O.solve_portfolio(prob, max_iter=400)
        assert sol.objective == pytest.approx(sol_geo.value, rel=0.02)
