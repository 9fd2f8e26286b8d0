"""Hot numeric kernels: counter-based uniforms, index draws and row selection.

Every kernel is vectorised numpy. Results are bit-reproducible by
construction: all randomness is integer splitmix64 arithmetic over counters,
index selection uses exact comparisons, and floating-point reductions happen
in a fixed order.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


# ---------------------------------------------------------------------------
# Counter-based uniforms (splitmix64 finaliser over seed-offset counters).
# Cell i of a stream draws finalize(scramble(seed) + (i+1)*GAMMA); the mapping
# to [0,1) keeps the top 53 bits. Everything is exact u64 arithmetic, so a
# cell depends only on (seed, i), never on how the stream is split.
# ---------------------------------------------------------------------------

def _scramble_seed(seed: int) -> np.uint64:
    with np.errstate(over="ignore"):
        z = _U64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """`count` deterministic uniforms from the (seed, counter) stream."""
    base = _scramble_seed(seed)
    ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = base + ctr * _GAMMA
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        z = z ^ (z >> _U64(31))
    return (z >> _U64(11)).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# Index draws: uniform over [0, n) and inverse-cdf lookup against a frozen
# table (used for truncated-geometric weighting).
# ---------------------------------------------------------------------------

def uniform_indices(u: np.ndarray, n: int) -> np.ndarray:
    """floor(u * n), capped at n - 1."""
    idx = (u * n).astype(np.int64)
    np.minimum(idx, n - 1, out=idx)
    return idx


def cdf_indices(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """First t with cdf[t] > u, per entry of u."""
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# Row-wise selection over K×alpha trial matrices.
# ---------------------------------------------------------------------------

def row_argmin(w: np.ndarray) -> np.ndarray:
    """Per-row argmin, first occurrence on ties."""
    return np.argmin(w, axis=1).astype(np.int64)


def rank_columns(w: np.ndarray, beta: int) -> np.ndarray:
    """Column indices of the beta smallest entries per row, w-ascending,
    ties broken by lowest column index."""
    return np.argsort(w, axis=1, kind="stable")[:, :beta].astype(np.int64)


def row_smallest_sums(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum x[k, cols[k, :]] per row, accumulated in cols order."""
    picked = np.take_along_axis(x, cols, axis=1)
    # Left to right, one column at a time: the summation order fixes the bits
    # of the beta Monte Carlo estimates in the `estimate` and `contrib --trials`
    # reports, which numpy's pairwise `sum(axis=1)` would change from B = 8 on.
    out = picked[:, 0].astype(np.float64).copy()
    for j in range(1, cols.shape[1]):
        out += picked[:, j]
    return out
