"""Factor risk and factor-risk contribution via conditional means.

The risk a position carries through a market factor is the risk of its
conditional mean given that factor. Everything here therefore reduces to two
steps: estimate conditional means by kernel or nearest-neighbour regression,
then reuse the exact scenario evaluators on the fitted values. Gaussian
closed forms are provided for validation and for covariance-based workflows.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import _kernels
from .contribution import risk_contribution
from .distortion import WeightingMeasure
from .scenario import ScenarioDistribution, weighted_var

__all__ = ["KernelRegressor", "KNearestRegressor", "fit_conditional_mean",
           "conditional_means", "factor_risk", "gaussian_factor_risk",
           "factor_contribution", "factor_model_diagnostic"]

_MAX_FACTOR_DIM = 5
_KERNEL_NEIGHBORS = 256
_BINS_1D = 2048
# query rows per prediction block: the weight block, not T, sets peak memory
_BLOCK_ROWS = 128
_LEAF = 16  # leaves of the neighbour search hold fewer than 2 * _LEAF points


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


def _sq_gap(lo, hi, qlo, qhi) -> np.ndarray:
    """Squared distances between boxes (dimensions last), summed as _sq_dist sums:
    rounding is monotone, so none exceeds that of two points in the boxes."""
    gap = np.maximum(np.maximum(lo - qhi, qlo - hi), 0.0)
    with np.errstate(over="ignore"):  # past the largest float: inf, the farthest
        return sum(gap[..., j] ** 2 for j in range(gap.shape[-1]))


class _Neighbours:
    """Exact k nearest neighbours on a balanced k-d partition (Friedman, Bentley
    & Finkel 1977) built level by level: each node splits its run of points at
    the median of its widest dimension, and leaves hold fewer than 2 * _LEAF.
    The k nearest are the first k by (squared distance, index)."""

    def __init__(self, points: np.ndarray):
        if not np.all(np.isfinite(points)):
            raise ValueError("factor observations must be finite")
        t = points.shape[0]
        self._p, self._perm = points, np.arange(t)
        self._bounds, self._boxes, self._dims, self._splits = [np.array([0, t])], [], [], []
        while True:
            b, run = self._bounds[-1], points[self._perm]
            self._boxes.append((np.minimum.reduceat(run, b[:-1]),
                                np.maximum.reduceat(run, b[:-1])))
            if np.diff(b).max() < 2 * _LEAF:
                break
            lo, hi = self._boxes[-1]
            self._dims.append((hi - lo).argmax(axis=1))
            mids = (b[:-1] + b[1:]) // 2
            for a, mid, z, d in zip(b[:-1], mids, b[1:], self._dims[-1]):
                seg = self._perm[a:z]
                self._perm[a:z] = seg[np.argpartition(points[seg, d], mid - a)]
            self._splits.append(points[self._perm[mids], self._dims[-1]])
            self._bounds.append(np.insert(b, np.arange(1, b.size), mids))

    def _sq_dist(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Squared distances from q to the points idx, the dimensions summed in
        order, as scipy's k-d tree sums up to 7 of them: its bits exactly."""
        p = self._p[idx]
        with np.errstate(over="ignore"):  # past the largest float: inf, the farthest
            return sum((q[:, None, j] - p[None, :, j]) ** 2 for j in range(q.shape[1]))

    def groups(self, q: np.ndarray, k: int):
        """(rows, squared distances, indices) for groups of at most
        2 * _LEAF - 1 query rows, each row's k nearest ascending."""
        if not np.all(np.isfinite(q)):
            raise ValueError("queries must be finite")
        leaf = np.zeros(q.shape[0], dtype=np.intp)
        for dims, splits in zip(self._dims, self._splits):
            leaf = 2 * leaf + (q[np.arange(q.shape[0]), dims[leaf]] >= splits[leaf])
        # a query's k-th distance within the deepest ancestor of its leaf that
        # holds 2k points bounds its k-th nearest
        level = max((i for i, b in enumerate(self._bounds) if np.diff(b).min() >= 2 * k),
                    default=0)
        anc, shift = self._bounds[level], len(self._dims) - level
        order = np.argsort(leaf, kind="stable")
        starts = np.flatnonzero(np.diff(leaf[order], prepend=-1))
        for a, z in zip(starts, np.append(starts[1:], order.size)):
            node = leaf[order[a]] >> shift
            for lo in range(a, z, 2 * _LEAF - 1):
                rows = order[lo:min(lo + 2 * _LEAF - 1, z)]
                bound = np.partition(self._sq_dist(q[rows], self._perm[anc[node]:anc[node + 1]]),
                                     k - 1, axis=1)[:, k - 1]
                yield (rows,) + self._nearest(q[rows], bound, k)

    def _nearest(self, q: np.ndarray, bound: np.ndarray, k: int):
        # the nodes halfway down, then their leaves, within the largest bound of
        # the queries' box; then the leaves within some query's own bound of it
        half = len(self._dims) // 2
        per, qbox = 1 << (len(self._dims) - half), (q.min(axis=0), q.max(axis=0))
        near = np.flatnonzero(_sq_gap(*self._boxes[half], *qbox) <= bound.max())
        near = (near[:, None] * per + np.arange(per)).ravel()
        lo, hi = self._boxes[-1]
        near = near[_sq_gap(lo[near], hi[near], *qbox) <= bound.max()]
        near = near[(_sq_gap(lo[near], hi[near], q[:, None], q[:, None])
                     <= bound[:, None]).any(axis=0)]
        b = self._bounds[-1]
        cand = np.sort(np.concatenate([self._perm[b[i]:b[i + 1]] for i in near]))
        d2 = self._sq_dist(q, cand)
        take = d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        if np.any(np.count_nonzero(take, axis=1) > k):
            # ties at the k-th distance: the lowest indices stay
            cols = np.argsort(d2, axis=1, kind="stable")[:, :k]
            return np.take_along_axis(d2, cols, axis=1), cand[cols]
        # flat indices: a 2-D nonzero costs several times more
        flat = np.flatnonzero(take).reshape(-1, k)
        d2, cols = d2.ravel()[flat], flat % d2.shape[1]
        ascending, order = np.sort(d2, axis=1), np.argsort(d2, axis=1)
        # cols ascend, so a stable sort puts tied distances in index order
        tied = np.any(ascending[:, 1:] == ascending[:, :-1], axis=1)
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")
        return ascending, cand[np.take_along_axis(cols, order, axis=1)]


class KNearestRegressor(_Targets):
    """Mean of the targets at the k nearest fitted factor points; one
    neighbour search serves every target."""

    def __init__(self, y: np.ndarray, x: np.ndarray, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        super().__init__(x)
        self.k = min(k, y.shape[0])
        self._search = _Neighbours(y)

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        out = np.empty((self._x.shape[0], y.shape[0]))
        for rows, _, idx in self._search.groups(y, self.k):
            out[:, rows] = np.take(self._x, idx, axis=1).mean(axis=2)
        return self._shaped(out)


class KernelRegressor(_Targets):
    """Gaussian-kernel conditional mean with Silverman bandwidths per dimension.

    One-dimensional factors use the standard binned fast path: the counts and
    every target's sums share one table of the occupied bins, so each block
    of query rows takes one exp and one matrix product, each query's weights
    scaled by its largest on an occupied bin. So a query far outside the data
    takes, in practice, the nearest occupied bin's mean, and one inside a gap
    between occupied bins weighs both sides against the nearer, however wide
    the gap; a bandwidth so small that every scaled distance overflows gives
    the nearest occupied bin's mean. Higher dimensions evaluate exact
    Gaussian weights on the _KERNEL_NEIGHBORS nearest samples, one neighbour
    search for all targets. Constant factor columns are left out of the fit;
    if every column is constant, the fit is the global mean.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray, bandwidth=None):
        t, m = y.shape
        if bandwidth is not None:
            h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (m,))
            if not np.all(np.isfinite(h) & (h > 0.0)):
                raise ValueError("bandwidth must be finite and > 0")
        # a constant factor column tells the samples apart nowhere: fit on the rest
        self._spread = np.any(y != y[:1], axis=0)
        y = y[:, self._spread]
        self._h = _silverman_bandwidths(y) if bandwidth is None else h[self._spread]
        super().__init__(x)
        x = self._x
        # constant targets reproduce exactly (downstream ranking relies on it)
        self._const = np.all(x == x[:, :1], axis=1)
        self._mean = np.where(self._const, x[:, 0], x.mean(axis=1))
        self._degenerate = bool(self._h.size == 0 or np.any(self._h <= 0.0)
                                or np.all(self._const))
        self._m = y.shape[1]
        if self._degenerate:
            return
        if self._m == 1:
            ys = y[:, 0]
            lo, hi = ys.min(), ys.max()
            nb = min(_BINS_1D, max(16, t))
            edges = np.linspace(lo, hi, nb + 1)
            which = np.clip(np.searchsorted(edges, ys, side="right") - 1, 0, nb - 1)
            # row 0: bin counts; row 1 + j: bin sums of target j
            table = np.array([np.bincount(which, minlength=nb)]
                             + [np.bincount(which, weights=row, minlength=nb) for row in x],
                             dtype=float)
            # empty bins add only exact zeros: keep the occupied ones
            occupied = table[0] > 0.0
            self._centers = (0.5 * (edges[:-1] + edges[1:]))[occupied]
            self._table = table[:, occupied]
        else:
            self._search = _Neighbours(y / self._h)

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if self._degenerate:
            return self._shaped(np.repeat(self._mean[:, None], y.shape[0], axis=1))
        y = y[:, self._spread]
        out = np.empty((self._x.shape[0], y.shape[0]))
        if self._m == 1:
            for s in _blocks(y.shape[0]):
                out[:, s] = self._predict_1d(y[s, 0])
        else:
            k = min(_KERNEL_NEIGHBORS, self._x.shape[1])
            for rows, d2, idx in self._search.groups(y / self._h, k):
                dist = np.sqrt(d2)
                logw = -0.5 * dist * dist
                logw -= logw.max(axis=1, keepdims=True)
                wgt = np.exp(logw)
                out[:, rows] = ((wgt * np.take(self._x, idx, axis=1)).sum(axis=2)
                                / wgt.sum(axis=1))
        out[self._const] = self._mean[self._const, None]
        return self._shaped(out)

    def _predict_1d(self, q: np.ndarray) -> np.ndarray:
        logw = q[:, None] - self._centers[None, :]
        logw /= self._h[0]
        # every scaled distance overflowing makes a row nan: the nearest bin below
        with np.errstate(over="ignore", invalid="ignore"):
            logw *= logw
            logw *= -0.5
            logw -= logw.max(axis=1, keepdims=True)
        sums = self._table @ np.exp(logw, out=logw).T
        ok = sums[0] > 0.0
        out = sums[1:] / np.where(ok, sums[0], 1.0)
        if not np.all(ok):  # every scaled distance overflowed: nearest bin
            nearest = np.abs(q[~ok, None] - self._centers[None, :]).argmin(axis=1)
            out[:, ~ok] = self._table[1:, nearest] / self._table[0, nearest]
        return out


def fit_conditional_mean(y, x, method: str, *, bandwidth=None, k: Optional[int] = None):
    """Fit a conditional-mean regressor of x on the factor sample y.

    x is one target (T,) or n targets (T, n); one fit serves them all, and
    predict returns values in the same layout. method: "kernel" or "knn";
    both need at least two samples.
    """
    y = _as_factor_matrix(y)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != y.shape[0] or x.size == 0:
        raise ValueError("x must align with the factor sample")
    if y.shape[0] < 2:
        raise ValueError("data-driven regression needs at least 2 samples")
    if method == "kernel":
        return KernelRegressor(y, x, bandwidth=bandwidth)
    if method == "knn":
        if k is None:
            k = max(5, int(round((y.shape[0] ** (4.0 / (4.0 + y.shape[1]))) ** 0.5)))
            k = min(k, max(2, y.shape[0] // 10)) or 1
        return KNearestRegressor(y, x, k)
    raise ValueError(f"unknown regression method {method!r}")


def conditional_means(series, y, method: str, **regressor_kwargs) -> np.ndarray:
    """Fitted conditional means on the factor sample y of one series (T,) or
    of n series (T, n), from one fit."""
    y = _as_factor_matrix(y)
    return fit_conditional_mean(y, series, method, **regressor_kwargs).predict(y)


def factor_risk(series, y, measure: WeightingMeasure, method: str,
                **regressor_kwargs) -> float:
    """Risk carried by the position through the factor: the risk of the fitted
    conditional mean, each factor sample weighted equally (the regressors fit
    unweighted too)."""
    fitted = conditional_means(series, y, method, **regressor_kwargs)
    return weighted_var(ScenarioDistribution(fitted), measure)


def factor_contribution(x_series, w_series, y, measure: WeightingMeasure,
                        method: str, **regressor_kwargs):
    """Factor-risk contribution of x to w, and the factor risk of w: the
    contribution between the two fitted conditional means (risk-signed) and
    the risk of w's, both from one fit on equally weighted factor samples."""
    # reference first: the order of the targets fixes the last bits of the fit
    gw, fx = conditional_means(np.column_stack([w_series, x_series]), y, method,
                               **regressor_kwargs).T
    return (risk_contribution(fx, gw, None, measure),
            weighted_var(ScenarioDistribution(gw), measure))


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
