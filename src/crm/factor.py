"""Factor risk and factor-risk contribution via conditional means.

The risk a position carries through a market factor is the risk of its
conditional mean given that factor. Everything here therefore reduces to two
steps: estimate conditional means (nonparametrically by default, analytically
when the caller knows them), then reuse the exact scenario evaluators on the
fitted values. Gaussian closed forms are provided for validation and for
covariance-based workflows.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .contribution import risk_contribution
from .distortion import WeightingMeasure
from .scenario import ScenarioDistribution, weighted_var

__all__ = ["KernelRegressor", "KNearestRegressor", "AnalyticRegressor",
           "fit_conditional_mean", "conditional_means", "factor_risk",
           "gaussian_factor_risk", "factor_contribution", "factor_model_diagnostic"]

_MAX_FACTOR_DIM = 5
_KERNEL_NEIGHBORS = 256
_BINS_1D = 2048
# query rows per prediction block: the weight block, not T, sets peak memory
_BLOCK_ROWS = 128


def _as_factor_matrix(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.size == 0:
        raise ValueError("factor observations must be a (T,) or (T, M) array")
    if y.shape[1] > _MAX_FACTOR_DIM:
        raise ValueError(
            f"factor dimension {y.shape[1]} exceeds {_MAX_FACTOR_DIM}; group factors "
            "into lower-dimensional blocks and sum their risks instead")
    return y


def _silverman_bandwidths(y: np.ndarray) -> np.ndarray:
    t, m = y.shape
    sd = y.std(axis=0, ddof=1) if t > 1 else np.zeros(m)
    factor = (4.0 / ((m + 2.0) * t)) ** (1.0 / (m + 4.0))
    return sd * factor


def _blocks(rows: int):
    for lo in range(0, rows, _BLOCK_ROWS):
        yield slice(lo, lo + _BLOCK_ROWS)


class _Targets:
    """Targets of a data-driven regressor: one series (T,) or n series (T, n),
    held as n contiguous rows so every target shares one pass over the
    factor sample."""

    def __init__(self, x: np.ndarray):
        self._single = x.ndim == 1
        self._x = np.ascontiguousarray(x[None, :] if self._single else x.T)

    def _shaped(self, out: np.ndarray) -> np.ndarray:
        """(n, Q) predictions in the shape of the fitted targets."""
        return out[0] if self._single else np.ascontiguousarray(out.T)


class AnalyticRegressor:
    """Conditional mean supplied by the caller as a function of the factor."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        single = y.ndim == 2 and y.shape[1] == 1
        out = np.asarray(self.fn(y[:, 0] if single else y), dtype=float)
        return out.reshape(y.shape[0])


class KNearestRegressor(_Targets):
    """Mean of the targets at the k nearest fitted factor points; one tree
    query serves every target."""

    def __init__(self, y: np.ndarray, x: np.ndarray, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        from scipy.spatial import cKDTree

        super().__init__(x)
        self.k = min(k, y.shape[0])
        self._tree = cKDTree(y)

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        out = np.empty((self._x.shape[0], y.shape[0]))
        for s in _blocks(y.shape[0]):
            _, idx = self._tree.query(y[s], k=self.k)
            near = np.take(self._x, idx, axis=1)
            out[:, s] = near if self.k == 1 else near.mean(axis=2)
        return self._shaped(out)


class KernelRegressor(_Targets):
    """Gaussian-kernel conditional mean with Silverman bandwidths per dimension.

    One-dimensional factors use the standard binned fast path: the counts and
    every target's sums share one bin table, so each block of query rows
    takes one exp and one matrix product. Higher dimensions evaluate exact
    Gaussian weights on a KD-tree-truncated neighbourhood, one tree query per
    block for all targets. Degenerate (zero-spread) factors fall back to the
    global mean; queries far outside the data collapse to the nearest sample.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray, bandwidth=None):
        t, m = y.shape
        if bandwidth is None:
            h = _silverman_bandwidths(y)
        else:
            h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (m,)).copy()
            if np.any(h <= 0.0):
                raise ValueError("bandwidth must be > 0")
        super().__init__(x)
        x = self._x
        # constant targets reproduce exactly (downstream ranking relies on it)
        self._const = np.all(x == x[:, :1], axis=1)
        self._mean = np.where(self._const, x[:, 0], x.mean(axis=1))
        self._degenerate = bool(np.any(h <= 0.0) or np.all(self._const))
        self._h = np.where(h > 0.0, h, 1.0)
        self._m = m
        if self._degenerate:
            return
        if m == 1:
            ys = y[:, 0]
            lo, hi = ys.min(), ys.max()
            nb = min(_BINS_1D, max(16, t))
            edges = np.linspace(lo, hi, nb + 1)
            which = np.clip(np.searchsorted(edges, ys, side="right") - 1, 0, nb - 1)
            self._centers = 0.5 * (edges[:-1] + edges[1:])
            # row 0: bin counts; row 1 + j: bin sums of target j
            self._table = np.array([np.bincount(which, minlength=nb)]
                                   + [np.bincount(which, weights=row, minlength=nb)
                                      for row in x], dtype=float)
        else:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(y / self._h)

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if self._degenerate:
            return self._shaped(np.repeat(self._mean[:, None], y.shape[0], axis=1))
        out = np.empty((self._x.shape[0], y.shape[0]))
        for s in _blocks(y.shape[0]):
            if self._m == 1:
                out[:, s] = self._predict_1d(y[s, 0])
            else:
                out[:, s] = self._predict_nd(y[s])
        out[self._const] = self._mean[self._const, None]
        return self._shaped(out)

    def _predict_1d(self, q: np.ndarray) -> np.ndarray:
        logw = q[:, None] - self._centers[None, :]
        logw /= self._h[0]
        logw *= logw
        logw *= -0.5
        logw -= logw.max(axis=1, keepdims=True)
        sums = self._table @ np.exp(logw, out=logw).T
        ok = sums[0] > 0.0
        out = sums[1:] / np.where(ok, sums[0], 1.0)
        if not np.all(ok):  # fully underflowed: nearest bin with data
            occupied = self._table[0] > 0.0
            cc = self._centers[occupied]
            vals = self._table[1:, occupied] / self._table[0, occupied]
            nearest = np.abs(q[~ok, None] - cc[None, :]).argmin(axis=1)
            out[:, ~ok] = vals[:, nearest]
        return out

    def _predict_nd(self, q: np.ndarray) -> np.ndarray:
        k = min(_KERNEL_NEIGHBORS, self._tree.n)
        dist, idx = self._tree.query(q / self._h, k=k)
        logw = -0.5 * dist * dist
        logw -= logw.max(axis=1, keepdims=True)
        wgt = np.exp(logw)
        return (wgt * np.take(self._x, idx, axis=1)).sum(axis=2) / wgt.sum(axis=1)


def fit_conditional_mean(y, x, method: str = "auto", *, bandwidth=None,
                         k: Optional[int] = None, fn: Optional[Callable] = None):
    """Fit a conditional-mean regressor of x on the factor sample y.

    x is one target (T,) or n targets (T, n); one fit serves them all, and
    predict returns values in the same layout. method: "kernel", "knn",
    "analytic", or "auto" (kernel up to 3 factor dimensions, knn above).
    Data-driven methods need at least two samples.
    """
    y = _as_factor_matrix(y)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != y.shape[0] or x.size == 0:
        raise ValueError("x must align with the factor sample")
    if method == "analytic":
        if fn is None:
            raise ValueError("analytic method needs fn")
        return AnalyticRegressor(fn)
    if y.shape[0] < 2:
        raise ValueError("data-driven regression needs at least 2 samples")
    if method == "auto":
        method = "kernel" if y.shape[1] <= 3 else "knn"
    if method == "kernel":
        return KernelRegressor(y, x, bandwidth=bandwidth)
    if method == "knn":
        if k is None:
            k = max(5, int(round(y.shape[0] ** (4.0 / (4.0 + y.shape[1])) ** 0.5)))
            k = min(k, max(2, y.shape[0] // 10)) or 1
        return KNearestRegressor(y, x, k)
    raise ValueError(f"unknown regression method {method!r}")


def conditional_means(series, y, method: str = "auto", **regressor_kwargs) -> np.ndarray:
    """Fitted conditional means on the factor sample y of one series (T,) or
    of n series (T, n), from one fit."""
    y = _as_factor_matrix(y)
    return fit_conditional_mean(y, series, method, **regressor_kwargs).predict(y)


def factor_risk(series, y, measure: WeightingMeasure, method: str = "auto",
                **regressor_kwargs) -> float:
    """Risk carried by the position through the factor: the risk of the fitted
    conditional mean, each factor sample weighted equally (the regressors fit
    unweighted too)."""
    fitted = conditional_means(series, y, method, **regressor_kwargs)
    return weighted_var(ScenarioDistribution(fitted), measure)


def factor_contribution(x_series, w_series, y, measure: WeightingMeasure,
                        method: str = "auto", fn=None, fn_w=None,
                        **regressor_kwargs) -> float:
    """Factor-risk contribution of x to w: the contribution between the two
    fitted conditional means (risk-signed), both from one fit, on equally
    weighted factor samples.

    With the analytic method, `fn` is the conditional mean of x and `fn_w`
    that of the reference (defaulting to `fn` for self-contribution checks).
    """
    if method == "analytic":
        fx = conditional_means(x_series, y, method, fn=fn, **regressor_kwargs)
        gw = conditional_means(w_series, y, method, fn=fn if fn_w is None else fn_w,
                               **regressor_kwargs)
    elif fn is not None or fn_w is not None:
        raise ValueError("fn/fn_w are only meaningful with method='analytic'")
    else:
        fx, gw = conditional_means(np.column_stack([x_series, w_series]), y, method,
                                   **regressor_kwargs).T
    return risk_contribution(fx, gw, None, measure)


def gaussian_factor_risk(mean_x: float, cov_xy, cov_yy, multiplier: float) -> float:
    """Closed-form factor utility for jointly Gaussian data.

    Returns mean_x - multiplier * sqrt(<C^+ a, a>) where a = cov(x, y) and C
    is the factor covariance; the factor risk is the negation. C may be
    singular: the system is solved on its range (pseudo-inverse), and a
    outside the range (beyond 1e-8 relative) is rejected.
    """
    a = np.atleast_1d(np.asarray(cov_xy, dtype=float))
    c = np.atleast_2d(np.asarray(cov_yy, dtype=float))
    if c.shape != (a.size, a.size):
        raise ValueError("covariance matrix does not match cov(x, y) length")
    if not np.allclose(c, c.T, atol=1e-12 * max(1.0, float(np.abs(c).max()))):
        raise ValueError("factor covariance must be symmetric")
    z, *_ = np.linalg.lstsq(c, a, rcond=None)
    scale = max(float(np.linalg.norm(a)), 1.0)
    if np.linalg.norm(c @ z - a) > 1e-8 * scale:
        raise ValueError("cov(x, y) lies outside the range of the factor covariance")
    quad = float(a @ z)
    return float(mean_x) - multiplier * math.sqrt(max(quad, 0.0))


def factor_model_diagnostic(loadings, idio_vols, factor_sample,
                            measure: WeightingMeasure, seed: int = 0) -> float:
    """Ratio of factor risk to total risk in a simulated linear factor model.

    Positions are rows of `loadings` against the common factors plus
    independent Gaussian idiosyncratic noise with the given volatilities. The
    systematic P&L is exact (conditional means are linear); the idiosyncratic
    part aggregates into one Gaussian stream per scenario. The ratio tends to
    one as positions accumulate; values well below one flag a portfolio whose
    risk the factors do not explain.
    """
    b = np.atleast_2d(np.asarray(loadings, dtype=float))
    sig = np.atleast_1d(np.asarray(idio_vols, dtype=float))
    f = np.asarray(factor_sample, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if b.shape[1] != f.shape[1]:
        raise ValueError("loadings and factor sample disagree on factor count")
    if sig.shape != (b.shape[0],):
        raise ValueError("idio_vols must have one entry per position")
    if np.any(sig < 0.0):
        raise ValueError("idio_vols must be nonnegative")
    total_loading = b.sum(axis=0)
    if not np.any(total_loading != 0.0):
        raise ValueError("degenerate model: aggregate factor loading is zero")
    systematic = f @ total_loading
    agg_vol = math.sqrt(float(np.dot(sig, sig)))
    if agg_vol > 0.0:
        from scipy.special import ndtri

        noise = ndtri(np.clip(_kernels.uniforms(seed, 0, f.shape[0]),
                              1e-16, 1.0 - 1e-16))
        total = systematic + agg_vol * noise
    else:
        total = systematic
    u_factor = -weighted_var(ScenarioDistribution(systematic), measure)
    u_total = -weighted_var(ScenarioDistribution(total), measure)
    if u_total == 0.0:
        raise ValueError("total risk is zero; the ratio is undefined")
    return u_factor / u_total
