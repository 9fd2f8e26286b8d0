"""The hot kernels: distributional checks and plain-Python references.

Each reference computes one cell at a time straight from the definition:
integer splitmix64 for the uniforms, ``int(u * n)`` and ``bisect`` for the
index draws, a (value, column) sort for the row selections and a left-to-right
float loop for the sums. Results are compared bit for bit.
"""

import bisect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from crm import _kernels as K
from crm import sampling

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_uniforms(seed, start, count):
    """Cell i draws mix(mix(seed) + (i + 1) * GAMMA), top 53 bits over 2**53."""
    base = _mix(seed & M64)
    return [(_mix((base + (start + i + 1) * GAMMA) & M64) >> 11) * 2.0 ** -53
            for i in range(count)]


def reference_order(row):
    """Columns of one row by (value, column); -0.0 and 0.0 tie."""
    return sorted(range(len(row)), key=lambda l: (row[l], l))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_backend_reports_a_name():
    assert K.backend() == "numpy"


def test_uniforms_deterministic_and_in_unit_interval():
    u1 = K.uniforms(42, 0, 10_000)
    u2 = K.uniforms(42, 0, 10_000)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    assert abs(u1.mean() - 0.5) < 0.02


def test_uniforms_seed_sensitivity():
    assert not np.array_equal(K.uniforms(1, 0, 1000), K.uniforms(2, 0, 1000))


def test_uniforms_counter_offsets_are_substreams():
    whole = K.uniforms(7, 0, 100)
    part = K.uniforms(7, 40, 60)
    assert np.array_equal(whole[40:], part)


@pytest.mark.parametrize("seed, start, count", [
    (0, 0, 0), (123, 0, 0), (123, 0, 5000), (-1, 0, 64), (-(2 ** 63), 3, 64),
    (2 ** 63, 0, 64), (2 ** 64 - 1, 17, 64), (2 ** 64 + 5, 0, 64),
    (0x5EED ^ 99, 2 ** 40, 64),
])
def test_uniforms_match_splitmix64_reference(seed, start, count):
    u = K.uniforms(seed, start, count)
    assert u.dtype == np.float64 and u.shape == (count,)
    assert bits(u) == bits(reference_uniforms(seed, start, count))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2 ** 70), 2 ** 70), st.integers(0, 2 ** 62), st.integers(0, 40))
def test_uniforms_reference_property(seed, start, count):
    assert bits(K.uniforms(seed, start, count)) == bits(reference_uniforms(seed, start,
                                                                           count))


# u * n stays below n for every u < 1; u = 1.0 is where the n - 1 cap acts
unit = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                 st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(unit, max_size=30), st.integers(1, 10 ** 9))
def test_uniform_indices_match_reference(u, n):
    want = [min(int(v * n), n - 1) for v in u]
    got = K.uniform_indices(np.array(u, dtype=np.float64), n)
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=12),
       st.lists(unit, max_size=30))
def test_cdf_indices_match_bisect_right(cdf, u):
    cdf = sorted(cdf)
    u = u + cdf  # hit every table entry exactly, ties included
    want = [bisect.bisect_right(cdf, v) for v in u]
    got = K.cdf_indices(np.array(u, dtype=np.float64), np.array(cdf))
    assert got.dtype == np.int64 and got.tolist() == want


# small integers, so rows tie often; 0.0 and -0.0 compare equal
CELLS = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]


@st.composite
def tied_matrices(draw):
    k = draw(st.integers(1, 6))
    a = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.sampled_from(CELLS), min_size=a, max_size=a),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(tied_matrices(), st.data())
def test_row_selection_matches_sorted_reference(w, data):
    beta = data.draw(st.integers(1, w.shape[1]))
    order = [reference_order(row.tolist()) for row in w]
    cols = K.rank_columns(w, beta)
    assert cols.dtype == np.int64
    assert cols.tolist() == [o[:beta] for o in order]
    arg = K.row_argmin(w)
    assert arg.dtype == np.int64
    assert arg.tolist() == [o[0] for o in order]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_smallest_sums_match_left_to_right_loop(data):
    w = data.draw(tied_matrices())
    k, a = w.shape
    x = np.array(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([-0.0, 0.0, 1e-300]),
        min_size=k * a, max_size=k * a))).reshape(k, a)
    cols = K.rank_columns(w, data.draw(st.integers(1, a)))
    want = []
    for row, picks in zip(x.tolist(), cols.tolist()):
        s = row[picks[0]]
        for c in picks[1:]:
            s += row[c]
        want.append(s)
    assert bits(K.row_smallest_sums(x, cols)) == bits(want)


def test_row_argmin_breaks_ties_by_lowest_column():
    w = np.array([[1.0, 1.0, 0.5], [2.0, 2.0, 2.0]])
    assert K.row_argmin(w).tolist() == [2, 0]


def test_rank_columns_tie_break_and_order():
    w = np.array([[3.0, 1.0, 1.0, 2.0]])
    assert K.rank_columns(w, 3).tolist() == [[1, 2, 3]]


def test_uniform_indices_cover_support():
    u = K.uniforms(5, 0, 200_000)
    idx = K.uniform_indices(u, 10)
    counts = np.bincount(idx, minlength=10)
    assert counts.min() > 0
    chi2 = ((counts - 20_000.0) ** 2 / 20_000.0).sum()
    assert chi2 < stats.chi2.ppf(0.999, df=9)


def test_cdf_indices_match_searchsorted_semantics():
    cdf = np.array([0.2, 0.5, 1.0])
    u = np.array([0.0, 0.19, 0.2, 0.49, 0.5, 0.99])
    assert K.cdf_indices(u, cdf).tolist() == [0, 0, 1, 1, 2, 2]


def _edges(values):
    """Each value and its float neighbours on either side."""
    v = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


@pytest.mark.parametrize("cdf", [
    sampling._geometric_cdf(0.999, 2000),
    sampling._geometric_cdf(0.97, 300),  # a long, slowly rising tail
    np.arange(1, 251) / 250,  # every entry on a bucket edge j/n
    np.repeat([0.0, 0.1, 0.1, 0.45, 0.5, 0.5, 1.0], [3, 40, 7, 1, 60, 9, 30]),
    0.75 * sampling._geometric_cdf(0.99, 500),  # ends below 1
    np.array([1.0]),
], ids=["geometric", "slow-tail", "edges", "flat", "short", "single"])
def test_cdf_indices_match_binary_search_over_chunks(cdf):
    n = cdf.size
    special = np.concatenate([[0.0, -0.0, 1.0], _edges(np.arange(n + 1) / n),
                              _edges(cdf), _edges([cdf[-1]])])
    special = special[(special >= 0.0) & (special <= 1.0)]
    size = 7 * ((2 * K._CHUNK + 777) // 7)  # two full chunks and a remainder
    u = np.concatenate([special, K.uniforms(11, 0, size - special.size)])
    got = K.cdf_indices(u.reshape(-1, 7), cdf)
    assert got.dtype == np.int64 and got.shape == (u.size // 7, 7)
    want = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(got.ravel(), want)
    table = cdf.tolist()
    assert got.ravel()[:special.size].tolist() == [bisect.bisect_right(table, v)
                                                   for v in special.tolist()]
    if cdf[-1] < 1.0:
        assert (got.ravel()[u >= cdf[-1]] == n).all()
    assert (got.ravel()[u == 0.0] == np.searchsorted(cdf, 0.0, side="right")).all()


def test_uniforms_memory_is_two_arrays_of_the_draw_count():
    # the counters, stepped in place, and one scratch array that ends as the
    # output: a fresh array per splitmix64 step would take twice that
    tracemalloc.start()
    try:
        u = K.uniforms(3, 0, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 16_000_000
    assert peak < 2.5 * u.nbytes


def test_cdf_indices_memory_is_the_output_and_one_chunk():
    u = K.uniforms(3, 0, 2_000_000)
    cdf = sampling._geometric_cdf(0.999, 2000)
    tracemalloc.start()
    try:
        out = K.cdf_indices(u, cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 16_000_000
    assert peak < 2 * out.nbytes
