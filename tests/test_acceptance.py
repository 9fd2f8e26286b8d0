"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Closed-form oracles and property checks only; every tolerance is stated
inline. Fixtures are deterministic (fixed seeds or quantile-grid panels).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from crm import _kernels
from crm import distortion as D
from crm import factor as F
from crm import mc
from crm import optimize as O
from crm import scenario as S
from crm import sharing as SH
from crm.contribution import capital_allocation, tail_correlation

from testkit import gauss_grid_panel
from geometric_oracle import geometric_solution


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # first @njit call pays compilation; keep it out of timed criteria
    _kernels.uniforms(0, 0, 8)
    _kernels.row_argmin(np.zeros((2, 2)))
    _kernels.rank_columns(np.zeros((2, 2)), 1)
    _kernels.row_smallest_sums(np.zeros((2, 2)), np.zeros((2, 1), dtype=np.int64))
    _kernels.cdf_indices(np.array([0.5]), np.array([1.0]))
    _kernels.uniform_indices(np.array([0.5]), 2)


def test_criterion_01_gaussian_tail_var():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    sample = rng.standard_normal(100_000)
    levels = (0.5, 0.1, 0.05)
    worst = 0.0
    for lam in levels:
        gm = D.tail_gaussian_multiplier(lam)
        exact = S.weighted_var(S.ScenarioDistribution(sample), D.tail(lam))
        resampled = _kernels.uniform_indices(_kernels.uniforms(7, 0, 100_000),
                                             sample.size)
        mc_est = S.weighted_var(S.ScenarioDistribution(sample[resampled]),
                                D.tail(lam))
        worst = max(worst, abs(exact / gm - 1.0), abs(mc_est / gm - 1.0))
    gamma_005 = D.tail_gaussian_multiplier(0.05)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and abs(gamma_005 - 2.06271) < 5e-6 and elapsed < 10.0
    report(1, "Gaussian expected-shortfall constants", ok,
           f"worst rel err {worst:.4f}, gamma(0.05)={gamma_005:.5f}, {elapsed:.1f}s")


def test_criterion_02_order_statistics_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        d = S.ScenarioDistribution(rng.normal(size=20), rng.dirichlet(np.ones(20)))
        for a in range(1, 13):
            for b in range(1, a + 1):
                lhs = S.beta_var_exact(d, a, b)
                rhs = S.weighted_var(d, D.beta(a, b))
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(2, "order-statistics identity (all orders to 12)", ok,
           f"worst abs gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_alpha_var_analytic():
    k = 1_000_000
    worst_sigma = 0.0
    for a in range(2, 9):
        u = _kernels.uniforms(300 + a, 0, k * a).reshape(k, a)
        est = mc.alpha_var_mc(u)
        want = -1.0 / (a + 1.0)
        worst_sigma = max(worst_sigma, abs(est.value - want) / est.std_error)
    ok = worst_sigma < 4.0
    report(3, "expected minimum of uniforms", ok,
           f"worst deviation {worst_sigma:.2f} standard errors")


def test_criterion_04_coherence_suite():
    rng = np.random.default_rng(404)
    measures = [D.tail(0.35), D.beta(6, 2), D.alpha(4),
                D.mixture([(0.25, 0.4), (0.6, 0.35), (1.0, 0.25)])]
    tol = 1e-9
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 14))
        probs = rng.dirichlet(np.ones(n))
        x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        y = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        lam = float(rng.uniform(0.1, 3.0))
        shift = float(rng.normal())
        bump = np.abs(rng.normal(size=n))
        fx = np.exp(x)  # comonotone companion
        m = measures[int(rng.integers(len(measures)))]
        rx = S.weighted_var(S.ScenarioDistribution(x, probs), m)
        ry = S.weighted_var(S.ScenarioDistribution(y, probs), m)
        if S.weighted_var(S.ScenarioDistribution(x + y, probs), m) > rx + ry + tol:
            violations += 1
        if abs(S.weighted_var(S.ScenarioDistribution(lam * x, probs), m) - lam * rx) > tol:
            violations += 1
        if abs(S.weighted_var(S.ScenarioDistribution(x + shift, probs), m) - (rx - shift)) > tol:
            violations += 1
        if S.weighted_var(S.ScenarioDistribution(x + bump, probs), m) > rx + tol:
            violations += 1
        comon = S.weighted_var(S.ScenarioDistribution(x + fx, probs), m)
        parts = rx + S.weighted_var(S.ScenarioDistribution(fx, probs), m)
        if abs(comon - parts) > tol:
            violations += 1
    report(4, "coherence axiom suite (1000 scenario pairs)", violations == 0,
           f"{violations} violations beyond {tol}")


def test_criterion_05_capital_allocation():
    rng = np.random.default_rng(505)
    worst_resid = 0.0
    kappa_bound_ok = True
    for _ in range(50):
        comps = [rng.normal(size=40) for _ in range(5)]
        probs = rng.dirichlet(np.ones(40))
        m = [D.tail(0.3), D.beta(7, 2), D.beta(4.5, 1.5)][int(rng.integers(3))]
        _, _, resid = capital_allocation(comps, probs, m)
        worst_resid = max(worst_resid, abs(resid))
        total = np.sum(comps, axis=0)
        for c in comps:
            try:
                k = tail_correlation(c, total, probs, m)
            except ValueError:
                continue
            if k > 1.0 + 1e-12:
                kappa_bound_ok = False
    # comonotone pairs under full-support measures: correlation exactly one
    worst_kappa_gap = 0.0
    for _ in range(20):
        w = rng.normal(size=30)
        probs = rng.dirichlet(np.ones(30))
        for m in (D.beta(3.5, 1.2), D.beta(10, 2)):
            k = tail_correlation(w ** 3, w, probs, m)
            worst_kappa_gap = max(worst_kappa_gap, abs(k - 1.0))
    ok = worst_resid < 1e-10 and kappa_bound_ok and worst_kappa_gap < 1e-9
    report(5, "capital allocation additivity and tail correlation", ok,
           f"residual {worst_resid:.1e}, comonotone gap {worst_kappa_gap:.1e}")


def test_criterion_06_gaussian_contribution_mc():
    rng = np.random.default_rng(606)
    k, a, b = 200_000, 20, 5
    gm = D.gaussian_multiplier(D.beta(a, b))
    worst_sigma = 0.0
    worst_kappa = 0.0
    for corr in (-0.5, 0.0, 0.6):
        z = rng.standard_normal((k, a, 2))
        w = z[..., 0]
        x = corr * z[..., 0] + math.sqrt(1.0 - corr * corr) * z[..., 1]
        est = mc.beta_contribution_mc(x, w, b)
        want = corr * gm  # risk-signed: -(0 - gm * corr)
        worst_sigma = max(worst_sigma, abs(est.value - want) / est.std_error)
        own = mc.beta_var_mc(x, b)
        kappa = est.value / own.value
        se_kappa = (est.std_error + abs(kappa) * own.std_error) / abs(own.value)
        worst_kappa = max(worst_kappa, abs(kappa - corr) / se_kappa)
    ok = worst_sigma < 3.0 and worst_kappa < 3.0
    report(6, "Gaussian contribution and tail correlation by MC", ok,
           f"contribution {worst_sigma:.2f} SE, correlation {worst_kappa:.2f} SE")


def test_criterion_07_factor_closed_forms():
    gm = D.gaussian_multiplier(D.tail(0.05))
    eps = 0.01
    # closed forms: joint risk vs single-factor risks and the reversal
    c = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    a_vec = np.array([eps, -eps])
    multi = -F.gaussian_factor_risk(0.0, a_vec, c, gm)
    single = -F.gaussian_factor_risk(0.0, [eps], [[1.0]], gm)
    closed_ok = (abs(multi - gm * math.sqrt(2 * eps)) < 1e-12
                 and abs(single - gm * eps) < 1e-12
                 and multi > 2 * single)
    # Monte Carlo replication with known conditional means
    rng = np.random.default_rng(707)
    t = 100_000
    chol = np.linalg.cholesky(c)
    y = rng.standard_normal((t, 2)) @ chol.T
    x = y[:, 0] - y[:, 1]
    batches = np.array_split(np.arange(t), 20)
    ests = [S.weighted_var(S.ScenarioDistribution(x[bb]), D.tail(0.05))
            for bb in batches]
    se = float(np.std(ests, ddof=1)) / math.sqrt(len(ests))
    mc_multi = S.weighted_var(S.ScenarioDistribution(y[:, 0] - y[:, 1]), D.tail(0.05))
    singles = []
    for j in (0, 1):
        cov_j = eps if j == 0 else -eps
        singles.append(S.weighted_var(S.ScenarioDistribution(cov_j * y[:, j]), D.tail(0.05)))
    mc_ok = (abs(mc_multi - gm * math.sqrt(2 * eps)) < 3 * se
             and all(abs(s - gm * eps) < 3 * se for s in singles))
    # dilatation monotonicity on 500 exact fixtures
    rng2 = np.random.default_rng(708)
    measures = [D.tail(0.35), D.beta(6, 2), D.alpha(4),
                D.mixture([(0.3, 0.5), (1.0, 0.5)])]
    dil_ok = True
    for _ in range(500):
        labels = np.repeat(np.arange(int(rng2.integers(2, 6))),
                           int(rng2.integers(1, 4)))
        xv = rng2.normal(size=labels.size)
        probs = rng2.dirichlet(np.ones(labels.size))
        cond = np.array([np.dot(xv[labels == l], probs[labels == l])
                         / probs[labels == l].sum() for l in labels])
        m = measures[int(rng2.integers(len(measures)))]
        u_f = -S.weighted_var(S.ScenarioDistribution(cond, probs), m)
        u = -S.weighted_var(S.ScenarioDistribution(xv, probs), m)
        if u_f < u - 1e-10:
            dil_ok = False
    ok = closed_ok and mc_ok and dil_ok
    report(7, "factor closed forms, reversal, dilatation monotonicity", ok,
           f"closed {closed_ok}, mc {mc_ok}, dilatation {dil_ok}")


def test_criterion_08_factor_model_diagnostic():
    rng = np.random.default_rng(808)
    f_sample = rng.standard_normal(50_000)
    big = F.factor_model_diagnostic(np.ones((10_000, 1)), np.ones(10_000),
                                    f_sample, D.tail(0.1), seed=8)
    small = F.factor_model_diagnostic(np.ones((1, 1)), [3.0], f_sample,
                                      D.tail(0.1), seed=8)
    ok = big >= 0.95 and small < 0.5
    report(8, "factor-model explanatory ratio", ok,
           f"n=1e4 ratio {big:.4f}, n=1 ratio {small:.3f}")


def test_criterion_09_optimizer():
    gm = D.gaussian_multiplier(D.tail(0.5))
    # solver against the closed form on a sampled Gaussian panel
    rng = np.random.default_rng(909)
    panel = rng.standard_normal((40_000, 2))
    prob = O.OptimizationProblem(
        rewards=np.array([1.0, 1.0]),
        limits=[O.RiskLimit(D.tail(0.5), 1.0, panel, "t50")])
    sol = O.solve_portfolio(prob, max_iter=400)
    want_h = np.array([1.0, 1.0]) / (math.sqrt(2.0) * gm)
    want_obj = math.sqrt(2.0) / gm
    cos = float(sol.h @ want_h / (np.linalg.norm(sol.h) * np.linalg.norm(want_h)))
    solver_ok = cos >= 0.999 and abs(sol.objective / want_obj - 1.0) < 0.03
    # geometric oracle exactness
    ang = 2.0 * np.pi * np.arange(360) / 360.0
    disk = geometric_solution(np.column_stack([np.cos(ang), np.sin(ang)]), [1.0, 0.0])
    square = geometric_solution(
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), [1.0, 0.0])
    geo_ok = (abs(disk.value - 1.0) < 1e-6
              and np.allclose(disk.h, [1.0, 0.0], atol=1e-6)
              and abs(square.value - 1.0) < 1e-12
              and np.allclose(square.h, [1.0, 0.0], atol=1e-12))
    # grid brute force never materially beats the solver
    small = rng.standard_normal((2000, 2))
    prob2 = O.OptimizationProblem(
        rewards=np.array([1.0, 1.0]),
        limits=[O.RiskLimit(D.tail(0.5), 1.0, small, "t50")])
    sol2 = O.solve_portfolio(prob2, max_iter=400)
    cum = np.arange(1, 2001) / 2000.0
    weights = np.diff(np.minimum(cum / 0.5, 1.0), prepend=0.0)
    axis = np.linspace(-0.2, 1.6, 201)
    hx, hy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([hx.ravel(), hy.ravel()])
    best = -np.inf
    for chunk in np.array_split(np.arange(grid.shape[0]), 12):
        series = small @ grid[chunk].T
        series.sort(axis=0)
        utils = weights @ series
        feas = utils >= -1.0
        if np.any(feas):
            best = max(best, float((grid[chunk] @ np.array([1.0, 1.0]))[feas].max()))
    grid_ok = best <= sol2.objective * 1.02
    ok = solver_ok and geo_ok and grid_ok
    report(9, "optimizer vs closed form, geometry, grid oracle", ok,
           f"cosine {cos:.5f}, obj rel {sol.objective / want_obj - 1.0:+.4f}, "
           f"grid best {best:.4f} vs solver {sol2.objective:.4f}")


def test_criterion_10_equilibrium():
    gm = D.gaussian_multiplier(D.tail(0.5))
    panel, probs = gauss_grid_panel(1000, 2)
    desks = [SH.Desk(panel=panel[:, :1], rewards=np.array([1.0]), name="d1"),
             SH.Desk(panel=panel[:, 1:], rewards=np.array([1.0]), name="d2")]
    firm = SH.FirmInstance(desks=desks, measures=[D.tail(0.5)],
                           limits=np.array([1.0]),
                           allocation=np.array([[0.5], [0.5]]), probs=probs)

    def bind(hs):
        series = firm.firm_series(hs)
        risk = S.weighted_var(S.ScenarioDistribution(series, probs), D.tail(0.5))
        return [h / risk for h in hs]

    h_opt = bind([np.array([1.0]), np.array([1.0])])
    prices, res_opt, _ = SH.equilibrium_prices(firm, h_opt)
    residuals = [res_opt]
    for pert in (1.05, 1.10, 1.20):
        h_p = bind([np.array([pert]), np.array([1.0 / pert])])
        _, r, _ = SH.equilibrium_prices(firm, h_p)
        residuals.append(r)
    resid_ok = (res_opt <= 1e-3 and residuals[3] > 0.05
                and residuals[1] < residuals[2] < residuals[3])
    price_ok = abs(prices[0] - math.sqrt(2.0) / gm) < 5e-3
    # allocation independence across random splits
    small_panel, small_probs = gauss_grid_panel(500, 2)
    sdesks = [SH.Desk(panel=small_panel[:, :1], rewards=np.array([1.0]), name="d1"),
              SH.Desk(panel=small_panel[:, 1:], rewards=np.array([1.0]), name="d2")]
    rng = np.random.default_rng(10)
    prices0, nets = None, []
    s_firm = SH.FirmInstance(desks=sdesks, measures=[D.tail(0.5)],
                             limits=np.array([1.0]),
                             allocation=np.array([[0.5], [0.5]]), probs=small_probs)
    series = s_firm.firm_series([np.array([1.0]), np.array([1.0])])
    risk = S.weighted_var(S.ScenarioDistribution(series, small_probs), D.tail(0.5))
    h_s = [np.array([1.0 / risk]), np.array([1.0 / risk])]
    alloc_ok = True
    for _ in range(10):
        split = float(rng.uniform(0.0, 1.0))
        firm_i = SH.FirmInstance(desks=sdesks, measures=[D.tail(0.5)],
                                 limits=np.array([1.0]),
                                 allocation=np.array([[split], [1.0 - split]]),
                                 probs=small_probs)
        p_i, _, _ = SH.equilibrium_prices(firm_i, h_s)
        trades = SH.limit_trades(firm_i, h_s)
        rep = SH.verify_equilibrium(firm_i, h_s, trades, p_i)
        if prices0 is None:
            prices0 = p_i
        if abs(p_i[0] - prices0[0]) > 1e-9:
            alloc_ok = False
        nets.append(rep.total_net_reward)
    alloc_ok = alloc_ok and (max(nets) - min(nets) < 1e-9)
    # hypothesis counterexamples: outstanding-risk and frozen-contribution
    # decentralizations leave money on the table
    corr = 0.6
    chol = np.linalg.cholesky(np.array([[1.0, corr], [corr, 1.0]]))
    c_panel, c_probs = gauss_grid_panel(500, 2, chol=chol)
    cdesks = [SH.Desk(panel=c_panel[:, :1], rewards=np.array([1.0]), name="d1"),
              SH.Desk(panel=c_panel[:, 1:], rewards=np.array([0.25]), name="d2")]
    c_firm = SH.FirmInstance(desks=cdesks, measures=[D.tail(0.5)],
                             limits=np.array([1.0]),
                             allocation=np.array([[0.5], [0.5]]), probs=c_probs)

    def c_bind(hs):
        series = c_firm.firm_series(hs)
        risk = S.weighted_var(S.ScenarioDistribution(series, c_probs), D.tail(0.5))
        return [h / risk for h in hs]

    def c_reward(hs):
        return float(hs[0][0] * 1.0 + hs[1][0] * 0.25)

    e2 = np.array([1.0, 0.25])
    h_global = c_bind([np.array([v]) for v in np.linalg.solve(
        np.array([[1.0, corr], [corr, 1.0]]), e2)])
    # hypothesis 1: desks max out their own standalone risk limits
    rho = [S.weighted_var(S.ScenarioDistribution(c_panel[:, j], c_probs), D.tail(0.5))
           for j in (0, 1)]
    h_outstanding = c_bind([np.array([0.5 / rho[0]]), np.array([0.5 / rho[1]])])
    gap1 = c_reward(h_global) - c_reward(h_outstanding)
    # hypothesis 2: frozen contribution limits at a lopsided point
    h_frozen = c_bind([np.array([2.0]), np.array([1.0])])
    gap2 = c_reward(h_global) - c_reward(h_frozen)
    hyp_ok = gap1 > 1e-4 and gap2 > 1e-4
    ok = resid_ok and price_ok and alloc_ok and hyp_ok
    report(10, "equilibrium certificates and counterexamples", ok,
           f"residuals {['%.4f' % r for r in residuals]}, "
           f"gaps {gap1:.4f}/{gap2:.4f}")


def test_criterion_11_diversification_limit():
    n = 10_000
    k = np.arange(n + 1)
    pmf = stats.binom.pmf(k, n, 0.5)
    pmf = pmf / pmf.sum()
    dist = S.ScenarioDistribution(k / n, pmf)
    u = -S.weighted_var(dist, D.beta(10, 2))
    gap = abs(u - 0.5)
    report(11, "diversification limit on the averaged binomial law",
           gap < 0.02, f"|utility - mean| = {gap:.5f}")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    import csv as _csv

    from crm import cli

    rng = np.random.default_rng(1212)

    def write(path, names, rows):
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["date"] + names)
            d0 = np.datetime64("2025-01-01")
            for i, row in enumerate(rows):
                w.writerow([str(d0 + i)] + list(row))

    p = tmp_path / "p.csv"
    x = tmp_path / "x.csv"
    f = tmp_path / "f.csv"
    write(p, ["A", "B"], rng.standard_normal((400, 2)).round(6).tolist())
    write(x, ["X"], rng.standard_normal((400, 1)).round(6).tolist())
    write(f, ["F1"], rng.standard_normal((400, 1)).round(6).tolist())
    rw = tmp_path / "rw.csv"
    rw.write_text("asset,reward\nA,1.0\nB,1.0\n")
    lim = tmp_path / "lim.json"
    lim.write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0}]))
    firm = tmp_path / "firm.json"
    firm.write_text(json.dumps({
        "desks": [{"name": "d1", "panel": "p.csv", "columns": ["A"], "rewards": [1.0]},
                  {"name": "d2", "panel": "p.csv", "columns": ["B"], "rewards": [1.0]}],
        "limits": [{"measure": "tail:0.5", "limit": 1.0}]}))
    ann = tmp_path / "ann.json"
    commands = [
        ["estimate", "--input", str(p), "--measure", "tail:0.1",
         "--scheme", "uniform:400", "--seed", "7"],
        ["estimate", "--input", str(p), "--measure", "alpha:8",
         "--scheme", "geometric:0.98", "--trials", "1000", "--seed", "7"],
        ["announce", "--input", str(p), "--measure", "beta:6,2",
         "--scheme", "uniform:400", "--trials", "300", "--seed", "5",
         "--out", str(ann)],
        ["contrib", "--input", str(x), "--announced", str(ann), "--seed", "5"],
        ["contrib", "--input", str(x), "--firm", str(p), "--measure",
         "tail:0.25", "--seed", "5"],
        ["factor", "--input", str(p), "--factors", str(f), "--measure",
         "tail:0.25", "--regression", "kernel"],
        ["allocate", "--input", str(p), "--measure", "beta:8,2"],
        ["kappa", "--input", str(x), "--firm", str(p), "--measure", "tail:0.5"],
        ["optimize", "--panel", str(p), "--rewards", str(rw), "--limits",
         str(lim), "--restarts", "2", "--max-iter", "120", "--seed", "4"],
        ["equilibrium", "--firm", str(firm), "--restarts", "2",
         "--max-iter", "120", "--seed", "4"],
    ]
    all_ok = True
    for argv in commands:
        outs = []
        for _ in range(2):
            code = cli.run_command(argv)
            raw = capsys.readouterr().out
            rep = json.loads(raw)
            rep.pop("timings", None)
            outs.append(json.dumps(rep, sort_keys=True))
            all_ok = all_ok and code == 0
        all_ok = all_ok and outs[0] == outs[1]
    with capsys.disabled():
        report(12, "CLI determinism across all subcommands", all_ok,
               f"{len(commands)} commands, byte-identical re-runs")
