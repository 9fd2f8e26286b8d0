"""The conditional-mean regressors against the dense per-target reference.

The reference fits one target at a time. In one dimension it builds the full
queries x occupied bins Gaussian weight matrix and sums it twice per target;
in more dimensions, and for k-nearest neighbours, it picks each query's
neighbours from the dense queries x T distance matrix, ordered by (squared
distance, index). The regressors in ``crm.factor`` share one bin table or one
neighbour search among all n targets and predict in blocks or groups of
query rows, so these tests cross block and leaf boundaries and check every
target column against its own reference fit. The neighbour search itself is
checked against scipy's ``cKDTree``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from crm import factor as F

TOL = 1e-12
BLOCK = F._BLOCK_ROWS


def brute_nearest(y, q, k):
    """Squared distances and indices of the k nearest factor points of each
    query, ordered by (squared distance, index), from the dense matrix."""
    d2 = sum((q[:, None, j] - y[None, :, j]) ** 2 for j in range(y.shape[1]))
    idx = np.array([np.lexsort((np.arange(y.shape[0]), row))[:k] for row in d2])
    return np.take_along_axis(d2, idx, axis=1), idx


def _bandwidths(y, bandwidth):
    t, m = y.shape
    if bandwidth is not None:
        return np.full(m, float(bandwidth))
    return y.std(axis=0, ddof=1) * (4.0 / ((m + 2.0) * t)) ** (1.0 / (m + 4.0))


def reference_kernel(y, x, q, bandwidth=None):
    """Gaussian-kernel conditional mean of one target x (T,) at the queries q,
    on the factor columns that are not constant."""
    if np.all(x == x[0]):
        return np.full(q.shape[0], x[0])
    spread = np.any(y != y[:1], axis=0)
    if not np.any(spread):
        return np.full(q.shape[0], x.mean())
    y, q = y[:, spread], q[:, spread]
    t, m = y.shape
    h = _bandwidths(y, bandwidth)
    if m > 1:
        d2, idx = brute_nearest(y / h, q / h, min(F._KERNEL_NEIGHBORS, t))
        dist = np.sqrt(d2)
        logw = -0.5 * dist * dist
        logw -= logw.max(axis=1, keepdims=True)
        wgt = np.exp(logw)
        return (wgt * x[idx]).sum(axis=1) / wgt.sum(axis=1)
    ys, qs = y[:, 0], q[:, 0]
    nb = min(F._BINS_1D, max(16, t))
    edges = np.linspace(ys.min(), ys.max(), nb + 1)
    which = np.clip(np.searchsorted(edges, ys, side="right") - 1, 0, nb - 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    bin_n = np.bincount(which, minlength=nb).astype(float)
    bin_sx = np.bincount(which, weights=x, minlength=nb)
    # the bins that hold data; the largest of a query's weights on them scales the rest
    occupied = bin_n > 0.0
    centers, bin_n, bin_sx = centers[occupied], bin_n[occupied], bin_sx[occupied]
    z = (qs[:, None] - centers[None, :]) / h[0]
    logw = -0.5 * z * z
    logw_max = logw.max(axis=1, keepdims=True)
    denom = (np.exp(logw - logw_max) * bin_n[None, :]).sum(axis=1)
    numer = (np.exp(logw - logw_max) * bin_sx[None, :]).sum(axis=1)
    out = np.empty(qs.size)
    ok = denom > 0.0
    out[ok] = numer[ok] / denom[ok]
    if np.any(~ok):  # every scaled distance overflowed: nearest bin with data
        out[~ok] = (bin_sx / bin_n)[np.abs(qs[~ok, None] - centers[None, :]).argmin(axis=1)]
    return out


def reference_knn(y, x, q, k):
    """Mean of one target x (T,) at the k nearest factor points of each query."""
    _, idx = brute_nearest(y, q, min(k, y.shape[0]))
    return x[idx].mean(axis=1)


@st.composite
def cases(draw, dims=(1,)):
    """(factor sample y, targets x (T, n), queries q, bandwidth or None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.sampled_from([2, 3, 17, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 37]))
    m = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 5))
    y = rng.standard_normal((t, m))
    shape = draw(st.sampled_from(["plain", "outlier", "degenerate", "tied"]))
    if shape == "outlier":
        y[0] = 1e4
    elif shape == "degenerate":
        y[:] = 0.25
    elif shape == "tied":
        y = np.round(y)
    x = rng.standard_normal((t, n)) * rng.choice([1e-3, 1.0, 1e3], size=n)
    for j in range(n):
        if draw(st.booleans()):
            x[:, j] = rng.choice([-2.5, 0.0, 7.1])
    bandwidth = draw(st.sampled_from([None, None, 1e-3, 0.4]))
    # in-sample rows, then queries in the gaps, beyond the edges and far out
    q = np.vstack([y, rng.uniform(-4.0, 4.0, (40, m)), [[1e6] * m], [[-3e5] * m]])
    return y, x, q, bandwidth


def _check_columns(got, x, reference):
    """Each column of got against reference(j): bit for bit on a constant
    target, else within TOL of the column's largest reference value."""
    for j in range(x.shape[1]):
        want = reference(j)
        if np.all(x[:, j] == x[0, j]):
            assert np.array_equal(got[:, j], want), j
        else:
            assert np.max(np.abs(got[:, j] - want)) <= TOL * np.abs(want).max(), j


@given(cases(dims=(1,)))
@settings(max_examples=150, deadline=None)
def test_kernel_1d_matches_reference(case):
    y, x, q, bw = case
    got = F.fit_conditional_mean(y, x, "kernel", bandwidth=bw).predict(q)
    _check_columns(got, x, lambda j: reference_kernel(y, x[:, j], q, bw))


@given(cases(dims=(2, 3)))
@settings(max_examples=60, deadline=None)
def test_kernel_nd_matches_reference(case):
    y, x, q, bw = case
    got = F.fit_conditional_mean(y, x, "kernel", bandwidth=bw).predict(q)
    _check_columns(got, x, lambda j: reference_kernel(y, x[:, j], q, bw))


@given(cases(dims=(1, 2, 4)), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_knn_matches_reference(case, k):
    y, x, q, _ = case
    got = F.fit_conditional_mean(y, x, "knn", k=k).predict(q)
    _check_columns(got, x, lambda j: reference_knn(y, x[:, j], q, k))


@given(cases(dims=(1, 2)), st.sampled_from(["kernel", "knn"]))
@settings(max_examples=40, deadline=None)
def test_one_target_keeps_its_shape(case, method):
    # a (T,) target predicts (Q,), column 0 of the (T, n) fit
    y, x, q, _ = case
    one = F.fit_conditional_mean(y, x[:, 0], method).predict(q)
    assert one.shape == (q.shape[0],)
    _check_columns(F.fit_conditional_mean(y, x, method).predict(q)[:, :1], x[:, :1],
                   lambda j: one)


def search(y, q, k):
    """Every query row's k nearest from the search's groups, each row once."""
    d2, idx = np.full((q.shape[0], k), np.nan), np.full((q.shape[0], k), -1)
    for rows, d, i in F._Neighbours(y).groups(q, k):
        assert rows.size <= 2 * F._LEAF - 1
        assert np.all(idx[rows] == -1)
        d2[rows], idx[rows] = d, i
    assert np.all(idx >= 0)
    return d2, idx


@st.composite
def search_cases(draw):
    """(factor sample y, queries q, k): Student-t samples, rounded ones full of
    ties, or the first t points of an integer grid, where every distance ties
    many times; queries in the sample, in its gaps, repeated and far out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 5))
    t = draw(st.sampled_from([1, 2, 15, 16, 31, 32, 33, 200, 1000]))
    k = draw(st.integers(1, t))
    y = rng.standard_t(4, size=(t, m))
    shape = draw(st.sampled_from(["plain", "rounded", "grid"]))
    if shape == "rounded":
        y = np.round(y)
    elif shape == "grid":
        side = math.ceil(t ** (1.0 / m))
        y = np.stack(np.unravel_index(np.arange(t), (side,) * m), axis=1).astype(float)
    gaps = rng.uniform(y.min(axis=0) - 1.0, y.max(axis=0) + 1.0, (25, m))
    q = np.vstack([y, gaps, y[:3], gaps[:3], [[1e6] * m], [[-1e6] * m]])
    return y, q, k


@given(search_cases())
@settings(max_examples=150, deadline=None)
def test_search_matches_ckdtree(case):
    y, q, k = case
    d2, idx = search(y, q, k)
    dist, want = cKDTree(y).query(q, k=k)
    assert np.array_equal(np.sqrt(d2), dist.reshape(d2.shape))
    # the tie rule: the first k by (squared distance, index)
    assert np.array_equal(idx, brute_nearest(y, q, k)[1])
    # where no two of the k + 1 nearest tie, cKDTree picks the same points
    near = np.sort(sum((q[:, None, j] - y[None, :, j]) ** 2 for j in range(y.shape[1])),
                   axis=1)[:, :k + 1]
    free = np.all(np.diff(near, axis=1) > 0.0, axis=1)
    assert np.array_equal(idx[free], want.reshape(idx.shape)[free])
