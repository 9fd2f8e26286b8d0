"""The exact layer against a slow per-scenario reference.

The reference prices one scenario at a time straight from the definition of
the symmetric worst-case measure: a scenario with value v shares the
distorted increment g(P(<= v)) - g(P(< v)) of its tie block with the other
members of the block, in proportion to its own probability. It needs no
sorting, merging or cumulative sums, so it checks the rank -> merge ties ->
distort -> weight path that ``weighted_var``, ``extreme_measure`` and
``weighted_contribution_empirical`` share.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crm import contribution as C
from crm import distortion as D
from crm import mc as M
from crm import scenario as S

TOL = 1e-12
MEASURES = [D.tail(0.35), D.tail(1.0), D.beta(6, 2), D.alpha(5),
            D.mixture([(0.25, 0.4), (0.6, 0.35), (1.0, 0.25)])]
# exactly representable values, so sums of them keep their ties; 0.0 and
# -0.0 compare equal and must merge into one block
TIE_POOL = [-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]


def reference_weights(w, probs, measure):
    """Worst-case weight of each scenario, one scenario at a time (O(T^2))."""
    w = [float(v) for v in w]
    probs = [float(p) for p in probs]
    top = max(w)
    out = []
    for v, p in zip(w, probs):
        below = math.fsum(q for u, q in zip(w, probs) if u < v)
        tied = math.fsum(q for u, q in zip(w, probs) if u == v)
        upper = 1.0 if v == top else min(below + tied, 1.0)  # all mass lies at or below the top
        block = measure.distortion(upper) - measure.distortion(min(below, 1.0))
        out.append(p * block / tied if tied > 0.0 else 0.0)
    return out


def reference_dot(a, b):
    return math.fsum(float(x) * float(y) for x, y in zip(a, b))


values = st.one_of(st.sampled_from(TIE_POOL),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))


@st.composite
def samples(draw, columns=1, elements=values):
    """(columns of T values with forced ties, probs or None, a permutation)."""
    n = draw(st.integers(1, 12))
    cols = []
    for _ in range(columns):
        col = np.array(draw(st.lists(elements, min_size=n, max_size=n)))
        col[draw(st.integers(0, n - 1))] = col[0]
        cols.append(col)
    probs = None
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
                      .filter(lambda c: sum(c) > 0))
        probs = np.array(counts, dtype=float) / sum(counts)
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    return cols, probs, perm


def _probs(probs, n):
    return np.full(n, 1.0 / n) if probs is None else probs


@given(samples(), st.sampled_from(MEASURES))
@settings(max_examples=200, deadline=None)
def test_weighted_var_matches_reference(sample, measure):
    (w,), probs, _ = sample
    q = reference_weights(w, _probs(probs, w.size), measure)
    got = S.weighted_var(S.ScenarioDistribution(w, probs), measure)
    assert abs(got + reference_dot(q, w)) <= TOL


@given(samples(), st.sampled_from(MEASURES))
@settings(max_examples=200, deadline=None)
def test_extreme_measure_matches_reference(sample, measure):
    (w,), probs, _ = sample
    q = reference_weights(w, _probs(probs, w.size), measure)
    ew = C.extreme_measure(w, probs, measure)
    assert np.max(np.abs(ew.weights - np.array(q))) <= TOL
    assert abs(ew.utility - reference_dot(q, w)) <= TOL


@given(samples(columns=2), st.sampled_from(MEASURES))
@settings(max_examples=200, deadline=None)
def test_weighted_contribution_matches_reference(sample, measure):
    (x, w), probs, _ = sample
    q = reference_weights(w, _probs(probs, w.size), measure)
    got = M.weighted_contribution_empirical(x, w, probs, measure)
    assert abs(got + reference_dot(q, x)) <= TOL


@given(samples(), st.sampled_from(MEASURES))
@settings(max_examples=200, deadline=None)
def test_extreme_measure_is_bitwise_permutation_equivariant(sample, measure):
    (w,), probs, perm = sample
    base = C.extreme_measure(w, probs, measure)
    moved = C.extreme_measure(w[perm], None if probs is None else probs[perm], measure)
    assert base.weights[perm].tobytes() == moved.weights.tobytes()
    assert base.utility == moved.utility


@given(samples(columns=2), st.sampled_from(MEASURES))
@settings(max_examples=300, deadline=None)
def test_weighted_contribution_is_bitwise_permutation_invariant(sample, measure):
    (x, w), probs, perm = sample
    base = M.weighted_contribution_empirical(x, w, probs, measure)
    moved = M.weighted_contribution_empirical(x[perm], w[perm],
                                              None if probs is None else probs[perm],
                                              measure)
    assert base.hex() == moved.hex()


@given(st.integers(2, 4).flatmap(
           lambda k: samples(columns=k, elements=st.sampled_from(TIE_POOL))),
       st.sampled_from(MEASURES))
@settings(max_examples=150, deadline=None)
def test_capital_allocation_is_additive_under_ties(sample, measure):
    comps, probs, _ = sample  # pool values add exactly, so the total keeps ties
    allocs, residual = C.capital_allocation(comps, probs, measure)
    assert abs(residual) <= TOL
    total = S.weighted_var(S.ScenarioDistribution(np.sum(comps, axis=0), probs), measure)
    assert abs(math.fsum(allocs.tolist()) - total) <= TOL


def test_partial_sums_rounding_past_one_are_capped():
    # the masses below the top value round to a cumulative sum just above 1,
    # and the top value itself has probability zero
    w = np.array([-2.0, -2.0, -0.0, 1.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -1.0])
    counts = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1, 9, 9, 2], dtype=float)
    probs = counts / counts.sum()
    tail = D.tail(0.35)
    assert S.weighted_var(S.ScenarioDistribution(w, probs), tail) == 2.0
    assert C.extreme_measure(w, probs, tail).utility == -2.0
    assert C.risk_contribution(w, w, probs, tail) == 2.0
    assert M.weighted_contribution_empirical(w, w, probs, tail) == 2.0
