"""The report writer against json.dumps, byte for byte.

`cli._emit` writes the indent-2, sorted-key layout itself and hands every
scalar to json. Its text must be what json.dumps writes, except that each
innermost row of an integer ndarray sits on one line in json's compact form
(`conftest.emit_reference`); a non-finite float must raise json's ValueError
with json's message.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import emit_reference
from crm import cli


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=cli._plain) + "\n"


def emit(obj):
    buf = io.StringIO()
    cli._emit(obj, buf)
    return buf.getvalue()


text = st.text(st.sampled_from('aZ é中\U0001f600"\\/\x00\x1f\x7f ')
               | st.characters(), max_size=8)
floats = st.floats() | st.sampled_from([0.0, -0.0, 1e-320, 1e300, np.nan, np.inf, -np.inf])
numpy_scalars = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 2 ** 32 - 1).map(np.uint32),
    st.booleans().map(np.bool_),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32))
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
arrays = st.one_of(
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.uint8, shapes),
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.bool_, shapes))
leaves = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), floats, text,
                   numpy_scalars, arrays)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(text, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)
                   | st.dictionaries(floats, inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(values)
def test_emit_matches_json_dumps(obj):
    try:
        want = emit_reference(obj)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            emit(obj)
        assert str(got.value) == str(exc)
    else:
        assert emit(obj) == want


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    np.array([[1.0, -np.inf]]), [1, {"a": (2, np.float32("inf"))}],
])
def test_non_finite_value_raises_jsons_error(bad):
    report = {"a": 1, "b": bad, "c": [np.arange(3), "x"]}
    with pytest.raises(ValueError) as want:
        dumps(report)
    assert str(want.value).startswith("Out of range float values are not JSON compliant: ")
    with pytest.raises(ValueError) as got:
        emit(report)
    assert str(got.value) == str(want.value)


def test_announce_sized_integer_arrays():
    rng = np.random.default_rng(3)
    report = {"indices": rng.integers(0, 2000, size=(40, 250)),
              "cells": rng.integers(0, 9, size=(3, 4, 2)), "empty": np.zeros((2, 0), int),
              "selected": rng.integers(-5, 250, size=40)}
    text = emit(report)
    assert text == emit_reference(report)
    assert json.loads(text) == json.loads(dumps(report))
