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
    """`count` deterministic uniforms from the (seed, counter) stream.

    The steps run in place on the counters, with one scratch array for the
    shifts that finally holds the result: two 8-byte arrays per draw."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    shifted = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += _scramble_seed(seed)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, _U64(shift), out=shifted)
            z *= mix
        z ^= np.right_shift(z, _U64(31), out=shifted)
        z >>= _U64(11)
    return np.multiply(z, _INV53, out=shifted.view(np.float64))


# ---------------------------------------------------------------------------
# Index draws: uniform over [0, n) and inverse-cdf lookup against a frozen
# table (used for truncated-geometric weighting).
# ---------------------------------------------------------------------------

def uniform_indices(u: np.ndarray, n: int) -> np.ndarray:
    """floor(u * n), capped at n - 1."""
    idx = (u * n).astype(np.int64)
    np.minimum(idx, n - 1, out=idx)
    return idx


_CHUNK = 1 << 16  # draws per guide-table pass: bounds the temporaries
_STEPS = 3  # guide steps before the draws left over take a binary search


def cdf_indices(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """First t with cdf[t] > u, per entry of u (len(cdf) when there is none),
    for a non-empty, non-decreasing cdf and u without NaN.

    Inverse-cdf lookup through a guide table (Chen & Asau 1974, "On
    generating random variates from an empirical distribution"): with
    n = len(cdf), a draw falls in bucket j = floor(u*n) and starts at
    guide[j], the answer for (j-1)/n, then steps up while cdf[t] <= u. u*n
    rounds to j or more only when u lies well above (j-1)/n, so guide[j] is a
    lower bound however u*n and j/n round, and the exact comparisons give bit
    for bit the answer of a binary search. Most draws settle within a step or
    two; the few in stretches where the cdf rises slowly (many entries per
    bucket, as in a long geometric tail) still unsettled after _STEPS steps
    take a binary search, which bounds the work by the binary search's.
    """
    n = cdf.size
    out = np.empty(u.shape, dtype=np.int64)
    guide = np.zeros(n, dtype=np.int64)
    guide[1:] = np.searchsorted(cdf, np.arange(n - 1) / n, side="right")
    # a NaN past the end stops every step at n, the answer past the table
    table = np.append(cdf, np.nan)
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    for start in range(0, flat_u.size, _CHUNK):
        uc = flat_u[start:start + _CHUNK]
        idx = guide[np.clip(uc * n, 0, n - 1).astype(np.int64)]
        for _ in range(_STEPS):
            step = table[idx] <= uc
            if not step.any():
                break
            idx += step
        else:
            late = np.flatnonzero(table[idx] <= uc)
            idx[late] = np.searchsorted(cdf, uc[late], side="right")
        flat_out[start:start + _CHUNK] = idx
    return out


# ---------------------------------------------------------------------------
# Row-wise selection over K×alpha trial matrices.
# ---------------------------------------------------------------------------

def row_argmin(w: np.ndarray) -> np.ndarray:
    """Per-row argmin, first occurrence on ties."""
    return np.argmin(w, axis=1).astype(np.int64)


def rank_columns(w: np.ndarray, beta: int) -> np.ndarray:
    """Column indices of the beta smallest entries per row, w-ascending,
    ties broken by lowest column index. One column is the argmin, O(K*alpha)."""
    if beta == 1:
        return row_argmin(w)[:, None]
    return np.argsort(w, axis=1, kind="stable")[:, :beta].astype(np.int64)


def row_smallest_sums(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum x[k, cols[k, :]] per row, accumulated in cols order."""
    picked = np.take_along_axis(x, cols, axis=1)
    # Left to right, one column at a time: the summation order fixes the bits
    # of the beta Monte Carlo estimates in the `estimate`, `contrib --trials`
    # and `contrib --announced` reports, which numpy's pairwise `sum(axis=1)`
    # would change from B = 8 on.
    out = picked[:, 0].astype(np.float64).copy()
    for j in range(1, cols.shape[1]):
        out += picked[:, j]
    return out
