"""The cutting-plane solver against a full Rockafellar–Uryasev LP.

For a mixture of tail atoms the risk of a portfolio is a weighted sum of
CVaRs, and each CVaR at level a is min_z z + E[(-X.h - z)^+] / a
(Rockafellar & Uryasev 2000; Acerbi & Simonetti 2002). One auxiliary block
(z, u_1..u_T) per atom and limit turns the whole problem into a single LP
with O(T) variables and no cutting planes, so it checks the optimum that
``solve_portfolio`` reaches through the extreme-measure cuts.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crm import distortion as D
from crm import optimize as O
from crm import scenario as S
from crm.errors import UnboundedError

TOL = 1e-4
MEASURES = [D.tail(0.05), D.tail(0.25), D.tail(0.5),
            D.mixture([(0.01, 0.5), (0.1, 0.5)]),
            D.mixture([(0.1, 0.3), (0.4, 0.5), (1.0, 0.2)])]


def reference_optimum(problem: O.OptimizationProblem):
    """max e.h under every limit, as one LP; None when it is unbounded."""
    from scipy.optimize import linprog

    e = problem.rewards
    d = e.size
    t = problem.limits[0].panel.shape[0]
    p = np.full(t, 1.0 / t) if problem.probs is None else np.asarray(problem.probs)
    blocks = [(lim, a, w) for lim in problem.limits
              for a, w in zip(lim.measure.levels, lim.measure.weights)]
    n = d + len(blocks) * (1 + t)
    rows, rhs = [], []
    budget = {}
    for k, (lim, a, w) in enumerate(blocks):
        z = d + k * (1 + t)
        # u_s >= -x_s.h - z, i.e. -x_s.h - z - u_s <= 0
        block = np.zeros((t, n))
        block[:, :d] = -lim.panel
        block[:, z] = -1.0
        block[:, z + 1:z + 1 + t] = -np.eye(t)
        rows.append(block)
        rhs.append(np.zeros(t))
        row = budget.setdefault(id(lim), np.zeros(n))
        row[z] += w
        row[z + 1:z + 1 + t] += w * p / a
    for lim in problem.limits:
        rows.append(budget[id(lim)][None, :])
        rhs.append(np.array([lim.limit]))
    bounds = [tuple(b) for b in problem.bounds]
    bounds += [b for _ in blocks for b in [(None, None)] + [(0.0, None)] * t]
    res = linprog(np.concatenate([-e, np.zeros(n - d)]), A_ub=np.vstack(rows),
                  b_ub=np.concatenate(rhs), bounds=bounds, method="highs")
    if res.status in (2, 3):  # h = 0 is feasible: presolve may call unbounded infeasible
        return None
    assert res.status == 0, res.message
    return -res.fun


def coordinate_deal(problem: O.OptimizationProblem) -> bool:
    """Some +-e_i the box leaves open has nonpositive risk under every limit."""
    for i, (lo, hi) in enumerate(problem.bounds):
        for s, edge in ((1.0, hi), (-1.0, lo)):
            if np.isinf(edge) and all(
                    S.weighted_var(S.ScenarioDistribution(s * lim.panel[:, i],
                                                          problem.probs),
                                   lim.measure) <= 0.0
                    for lim in problem.limits):
                return True
    return False


@st.composite
def problems(draw):
    d = draw(st.integers(1, 5))
    t = draw(st.integers(20, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    panel = rng.standard_t(5, size=(t, d)) + rng.uniform(-0.1, 0.3, size=d)
    probs = None
    if draw(st.booleans()):
        probs = rng.uniform(0.0, 1.0, size=t)
        probs /= probs.sum()
    picks = draw(st.lists(st.sampled_from(range(len(MEASURES))), min_size=1,
                          max_size=3, unique=True))
    limits = []
    for i in picks:
        # a second, factor-like panel for some limits: a smoothed copy
        lim_panel = panel if draw(st.booleans()) else \
            0.5 * (panel + np.roll(panel, 1, axis=0))
        limits.append(O.RiskLimit(MEASURES[i], float(rng.uniform(0.5, 2.0)),
                                  lim_panel))
    bounds = None
    if draw(st.booleans()):
        bounds = np.column_stack([-rng.uniform(0.0, 1.0, size=d),
                                  rng.uniform(0.0, 1.0, size=d)])
        bounds[rng.uniform(size=(d, 2)) < 0.3] *= np.inf
        bounds[np.isnan(bounds)] = 0.0
    rewards = rng.normal(size=d)
    rewards[rewards == 0.0] = 1.0
    return O.OptimizationProblem(rewards=rewards, limits=limits, probs=probs,
                                 bounds=bounds)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_matches_rockafellar_uryasev_lp(problem):
    want = reference_optimum(problem)
    try:
        sol = O.solve_portfolio(problem, tol=TOL, max_iter=500)
    except UnboundedError:
        # No-Good-Deals fails: the objective is unbounded, or an asset alone
        # is riskless under every limit (whatever its reward)
        assert want is None or coordinate_deal(problem)
        return
    assert want is not None and sol.converged
    assert abs(sol.objective - want) <= TOL * abs(want) + 1e-9
    limits = np.array([lim.limit for lim in problem.limits])
    assert np.all(sol.risks <= limits * (1.0 + 1e-9))
    lo, hi = problem.bounds.T
    assert np.all((sol.h >= lo) & (sol.h <= hi))


def test_fixed_two_limit_instance():
    rng = np.random.default_rng(5)
    panel = rng.standard_t(4, size=(300, 5)) + 0.05
    problem = O.OptimizationProblem(
        rewards=panel.mean(axis=0),
        limits=[O.RiskLimit(D.tail(0.05), 2.0, panel),
                O.RiskLimit(D.mixture([(0.01, 0.5), (0.1, 0.5)]), 2.2, panel)])
    want = reference_optimum(problem)
    sol = O.solve_portfolio(problem, tol=TOL)
    assert sol.converged and sol.binding
    assert abs(sol.objective - want) <= TOL * want


def test_unbounded_relaxation_is_cut_not_raised():
    # tail:0.05 on 20 scenarios is minus the worst scenario; the cuts at
    # +-e_i leave a ray open, which a bounded problem must cut off
    from scipy.optimize import linprog

    panel = np.random.default_rng(13).standard_normal((20, 4))
    problem = O.OptimizationProblem(np.ones(4), [O.RiskLimit(D.tail(0.05), 1.0, panel)])
    seeds = np.array(O._no_good_deals_check(problem))
    relaxed = linprog(-problem.rewards, A_ub=seeds, b_ub=np.ones(len(seeds)),
                      bounds=(None, None), method="highs")
    assert relaxed.status != 0
    sol = O.solve_portfolio(problem, tol=TOL)
    assert sol.converged
    assert abs(sol.objective - reference_optimum(problem)) <= TOL * sol.objective


@st.composite
def kelley_lps(draw):
    """max c.x over a x <= b in a box around 0: b in {0, 1}, each bound
    infinite, finite or 0, and some rows repeated, zero or parallel."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, d))
    if draw(st.booleans()):
        a = np.round(a)  # ties in the ratio test, zero entries
    src, dst = rng.integers(0, max(m, 1), size=(2, m // 3))
    kind = draw(st.sampled_from(["plain", "repeated", "zero", "parallel"]))
    if kind == "repeated":
        a[dst] = a[src]
    elif kind == "zero":
        a[dst] = 0.0
    elif kind == "parallel":
        a[dst] = a[src] * rng.uniform(0.1, 3.0, size=(dst.size, 1))
    b = rng.integers(0, 2, size=m).astype(float)
    edges = np.array([np.inf, 1.0, 0.0])[rng.integers(0, 3, size=(d, 2))]
    bounds = edges * rng.uniform(0.1, 2.0, size=(d, 2)) * [-1.0, 1.0]
    c = rng.normal(size=d)
    return (np.round(c) if draw(st.booleans()) and np.any(np.round(c)) else c), a, b, bounds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kelley_lps())
def test_lp_matches_highs(lp):
    from scipy.optimize import linprog

    c, a, b, bounds = lp
    res = linprog(-c, A_ub=a if b.size else None, b_ub=b if b.size else None,
                  bounds=bounds, method="highs")
    x = O._lp_max(c, a, b, bounds)
    if res.status in (2, 3):  # as in reference_optimum: x = 0 is feasible
        assert x is None
        return
    assert res.status == 0, res.message
    assert x is not None
    want = -res.fun
    assert abs(c @ x - want) <= 1e-9 * max(1.0, abs(want))
    assert np.all(a @ x <= b + 1e-9)
    assert np.all((bounds[:, 0] <= x) & (x <= bounds[:, 1]))


def test_lp_does_not_cycle_on_beales_example():
    # Beale (1955): the largest-coefficient rule cycles here without reaching
    # the optimum 5/4 at x = (1, 0, 1, 0)
    c = np.array([0.75, -20.0, 0.5, -6.0])
    a = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    x = O._lp_max(c, a, np.array([0.0, 0.0, 1.0]), np.tile([0.0, np.inf], (4, 1)))
    np.testing.assert_allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert abs(c @ x - 1.25) <= 1e-12


def test_lp_memory_is_linear_in_the_rows():
    rng = np.random.default_rng(3)
    m, d = 4000, 10
    a = rng.normal(size=(m, d))
    b = np.ones(m)
    tracemalloc.start()
    try:
        x = O._lp_max(rng.normal(size=d), a, b, np.tile([-np.inf, np.inf], (d, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x is not None and np.all(a @ x <= b + 1e-9)
    assert peak < 5e6  # an m x m tableau alone would take 128 MB
