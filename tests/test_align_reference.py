"""panel.align against the quadratic join it replaced.

The reference is the join the CLI used to write out in each command: keep
every date of the first sequence that the second one holds, in the first
sequence's order, and look up both rows with tuple.index, O(T_a * T_b).
"""

import datetime as _dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crm.panel import align


def reference_align(dates_a, dates_b):
    dates_a, dates_b = tuple(dates_a), tuple(dates_b)
    common = [d for d in dates_a if d in set(dates_b)]
    return [dates_a.index(d) for d in common], [dates_b.index(d) for d in common]


iso_dates = st.dates(min_value=_dt.date(1999, 12, 1),
                     max_value=_dt.date(2000, 3, 1)).map(_dt.date.isoformat)
other_dates = st.text(alphabet="0123456789abQ-_/", min_size=1, max_size=8)


@st.composite
def date_pairs(draw):
    """Two shuffled date sequences with partial, empty or full overlap."""
    pool = draw(st.lists(st.one_of(iso_dates, other_dates), unique=True, max_size=40))
    overlap = draw(st.sampled_from(["partial", "empty", "full"]))
    if overlap == "full":
        a, b = pool, pool
    elif overlap == "empty":
        cut = draw(st.integers(0, len(pool)))
        a, b = pool[:cut], pool[cut:]
    else:
        a = [d for d in pool if draw(st.booleans())]
        b = [d for d in pool if draw(st.booleans())]
    return draw(st.permutations(a)), draw(st.permutations(b)), overlap


@settings(max_examples=300, deadline=None)
@given(date_pairs())
def test_align_matches_quadratic_join(pair):
    dates_a, dates_b, overlap = pair
    ia, ib = align(dates_a, dates_b)
    want_a, want_b = reference_align(dates_a, dates_b)
    assert ia.dtype == ib.dtype == np.int64
    assert ia.tolist() == want_a and ib.tolist() == want_b
    if overlap == "empty":
        assert ia.shape == ib.shape == (0,)
    if overlap == "full":
        assert ia.tolist() == list(range(len(dates_a)))


def test_align_accepts_tuples_and_empty_sequences():
    ia, ib = align(("2020-01-03", "x", "2020-01-01"), ())
    assert ia.shape == ib.shape == (0,) and ia.dtype == np.int64
    ia, ib = align(("2020-01-03", "x", "2020-01-01"), ("2020-01-01", "y", "x"))
    assert ia.tolist() == [1, 2] and ib.tolist() == [2, 0]
