"""Draw schemes: determinism, marginal laws, series transforms."""

import numpy as np
import pytest
from scipy import stats

from crm import sampling as sp


class TestParse:
    def test_invalid(self):
        for text in ("uniform:0", "geometric:1.5", "bootstrap:0", "timechange:0,4",
                     "scaling:-1", "wat:3", "uniform"):
            with pytest.raises(ValueError):
                sp.parse_scheme(text)


class TestEffectiveSeries:
    SERIES = np.linspace(-1.0, 2.0, 40)

    def test_uniform_keeps_the_recent_window(self):
        eff, probs = sp.effective_series(self.SERIES, sp.parse_scheme("uniform:10"))
        assert eff.tolist() == self.SERIES[:10].tolist() and probs is None

    def test_geometric_weights_recent_periods_more(self):
        eff, probs = sp.effective_series(self.SERIES, sp.parse_scheme("geometric:0.9"))
        assert eff is self.SERIES
        assert probs.sum() == pytest.approx(1.0) and np.all(np.diff(probs) < 0.0)
        assert probs[1] / probs[0] == pytest.approx(0.9)

    def test_transforms_match_the_series_functions(self):
        x = self.SERIES
        for text, standardize, want in [
                ("timechange:1.4,2", False, sp.time_change_series(x, 1.4, 2)),
                ("timechange:1.4,2", True, sp.time_change_series(x, 1.4, 2,
                                                                  standardize=True)),
                ("scaling:2.0", False, 2.0 * x),
                ("scaling:2.0", True, sp.scale_series(x, 2.0))]:
            eff, probs = sp.effective_series(x, sp.parse_scheme(text), standardize)
            assert eff.tolist() == want.tolist() and probs is None

    def test_bootstrap_samples_the_series_itself(self):
        eff, probs = sp.effective_series(self.SERIES, sp.parse_scheme("bootstrap:3"))
        assert eff is self.SERIES and probs is None

    def test_parsed_transform_schemes_draw_uniformly_over_the_series(self):
        eff, _ = sp.effective_series(self.SERIES, sp.parse_scheme("timechange:1.4,2"))
        for text in ("timechange:1.4,2", "scaling:2.0"):
            d = sp.generate_draws(sp.parse_scheme(text), eff.size, 30, 5, seed=4)
            uni = sp.generate_draws(sp.parse_scheme(f"uniform:{eff.size}"), eff.size,
                                    30, 5, seed=4)
            assert np.array_equal(d.indices, uni.indices)


class TestGenerateDraws:
    def test_bit_identical_regeneration(self):
        s = sp.parse_scheme("geometric:0.95")
        a = sp.generate_draws(s, 300, 50, 7, seed=42)
        b = sp.generate_draws(s, 300, 50, 7, seed=42)
        assert np.array_equal(a.indices, b.indices)
        c = sp.generate_draws(s, 300, 50, 7, seed=43)
        assert not np.array_equal(a.indices, c.indices)

    def test_single_point_support(self):
        d = sp.generate_draws(sp.parse_scheme("uniform:1"), 1, 3, 2, seed=1)
        assert np.all(d.indices == 0)

    def test_uniform_window_truncates_to_history(self):
        d = sp.generate_draws(sp.parse_scheme("uniform:500"), 100, 200, 4, seed=2)
        assert d.indices.max() < 100

    def test_geometric_marginal_chi_square(self):
        lam = 0.95
        n = 100
        draws = sp.generate_draws(sp.parse_scheme(f"geometric:{lam}"), n,
                                  1_000_000, 1, seed=11)
        idx = draws.indices.ravel()
        t = np.arange(1, n + 1, dtype=float)
        pmf = (1 - lam) * lam ** (t - 1)
        pmf /= pmf.sum()
        counts = np.bincount(idx, minlength=n).astype(float)
        expected = pmf * idx.size
        # merge any sparse old-age tail so every chi-square cell has mass
        keep = expected >= 20
        chi2 = float((((counts[keep] - expected[keep]) ** 2) / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        if not keep.all():
            tail_exp = expected[~keep].sum()
            chi2 += float((counts[~keep].sum() - tail_exp) ** 2 / tail_exp)
            dof += 1
        assert chi2 < stats.chi2.ppf(0.99, df=dof)

    def test_bootstrap_shape_and_mean_preservation(self):
        rng = np.random.default_rng(3)
        series = rng.normal(0.3, 1.0, size=400)
        s = sp.parse_scheme("bootstrap:8")
        d = sp.generate_draws(s, series.size, 5000, 3, seed=9)
        assert d.indices.shape == (5000, 3, 8)
        vals = sp.materialize(d, series)
        assert vals.shape == (5000, 3)
        want = 8 * series.mean()
        se = 8 ** 0.5 * series.std() / (vals.size ** 0.5) * 3
        # composed increments average m times the sub-increment mean
        assert abs(vals.mean() - want) < 3 * (series.std() * np.sqrt(8) / np.sqrt(vals.size)) + se

    def test_weighted_bootstrap_prefers_recent(self):
        s = sp.parse_scheme("bootstrap:4,0.9")
        d = sp.generate_draws(s, 200, 20_000, 1, seed=5)
        idx = d.indices.ravel()
        assert (idx < 20).mean() > (idx >= 100).mean()

    def test_validation(self):
        s = sp.parse_scheme("uniform:10")
        with pytest.raises(ValueError):
            sp.generate_draws(s, 0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            sp.generate_draws(s, 10, 0, 1, seed=0)


class TestTimeChange:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert sp.time_change_series(x, sigma=1.0, subintervals=1).tolist() == x.tolist()

    def test_pairwise_windows_most_recent_first(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])  # index 0 = most recent
        out = sp.time_change_series(x, sigma=np.sqrt(2.0), subintervals=1)
        assert out.tolist() == [3.0, 7.0]

    def test_zero_series_stays_zero(self):
        out = sp.time_change_series(np.zeros(24), sigma=1.7, subintervals=4)
        assert np.all(out == 0.0)

    def test_window_rounds_to_zero(self):
        with pytest.raises(ValueError):
            sp.time_change_series(np.ones(10), sigma=0.1, subintervals=1)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            sp.time_change_series([], 1.0, 1)


class TestScaling:
    def test_burst_is_damped_relative_to_raw(self):
        # quiet history, then a volatility burst in the recent half: rolling
        # standardization shrinks post-burst magnitudes relative to raw
        rng = np.random.default_rng(8)
        quiet = rng.normal(0, 0.5, size=60)
        burst = rng.normal(0, 3.0, size=40)
        x = np.concatenate([burst, quiet])  # most recent first
        out = sp.scale_series(x, 1.0)
        raw_ratio = np.abs(x[:30]).mean() / np.abs(x[-30:]).mean()
        std_ratio = np.abs(out[:30]).mean() / np.abs(out[-30:]).mean()
        assert std_ratio < 0.55 * raw_ratio

    def test_constant_magnitude_normalizes_to_sigma(self):
        x = np.array([2.0, -2.0, 2.0, -2.0, 2.0, -2.0])
        out = sp.scale_series(x, 1.3)
        assert np.allclose(np.abs(out), 1.3)


class TestEwmaVolatility:
    def test_constant_series(self):
        v = sp.ewma_volatility(np.full(30, 0.7))
        assert np.allclose(v, 0.7)

    def test_uses_older_data_only(self):
        x = np.zeros(30)
        x[0] = 100.0  # most recent shock must not affect its own estimate
        v = sp.ewma_volatility(x)
        assert v[0] == 1.0  # older window is all zero, floor kicks in

    def test_shapes_and_validation(self):
        with pytest.raises(ValueError):
            sp.ewma_volatility([])
        with pytest.raises(ValueError):
            sp.ewma_volatility([[1.0, 2.0]])
