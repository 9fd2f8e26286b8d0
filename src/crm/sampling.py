"""Draw-index generation and series preprocessing for historical estimation.

Index convention throughout: position 0 is the most recent period and indices
grow into the past. All randomness comes from counter-based substreams keyed
on (seed, trial, slot), so regeneration is bit-identical at any parallelism
level and desks can reproduce announced draws exactly.

Schemes:

* ``uniform:T``        -- uniform over the most recent T realizations;
* ``geometric:q``      -- ages weighted by a truncated geometric law, more
  mass on recent data (weighted historical simulation);
* ``bootstrap:n[,q]``  -- each draw composes n sub-interval increments chosen
  uniformly (or geometrically with parameter q);
* ``timechange:s,n``   -- stretch the sampling clock by the current variance:
  windows of round(s^2*n) sub-increments form one period;
* ``scaling:s``        -- standardize increments by a rolling volatility and
  rescale them to the current level s (filtered historical simulation).

Draws follow the geometric cdf when the scheme has a decay, else they are
uniform over its window (or the whole sampled series); bootstrap adds a
sub-draw axis. Standardizing divides by ``ewma_volatility``, whose decay and
window are the constants ``_EWMA_DECAY`` and ``_EWMA_WINDOW``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels

__all__ = ["DrawScheme", "DrawMatrix", "parse_scheme", "effective_series",
           "generate_draws", "materialize", "time_change_series", "scale_series",
           "ewma_volatility"]


@dataclass(frozen=True)
class DrawScheme:
    """Validated draw scheme; see the module docstring for the kinds."""

    kind: str                       # uniform | geometric | bootstrap | timechange | scaling
    window: Optional[int] = None    # uniform: most recent T
    decay: Optional[float] = None   # geometric weight / bootstrap weighting
    subintervals: Optional[int] = None  # bootstrap/timechange: n
    sigma: Optional[float] = None   # timechange/scaling: current volatility

    def __post_init__(self):
        k = self.kind
        if k == "uniform":
            if self.window is None or self.window < 1:
                raise ValueError("uniform scheme needs a window >= 1")
        elif k == "geometric":
            if self.decay is None or not 0.0 < self.decay < 1.0:
                raise ValueError("geometric scheme needs a decay in (0, 1)")
        elif k == "bootstrap":
            if self.subintervals is None or self.subintervals < 1:
                raise ValueError("bootstrap scheme needs subintervals >= 1")
            if self.decay is not None and not 0.0 < self.decay < 1.0:
                raise ValueError("bootstrap weighting decay must lie in (0, 1)")
        elif k in ("timechange", "scaling"):
            if self.sigma is None or self.sigma <= 0.0:
                raise ValueError(f"{k} scheme needs sigma > 0")
            if k == "timechange" and (self.subintervals is None or self.subintervals < 1):
                raise ValueError("timechange scheme needs subintervals >= 1")
        else:
            raise ValueError(f"unknown scheme kind {k!r}")


def parse_scheme(text: str) -> DrawScheme:
    """Parse a scheme spec string (see module docstring for the grammar)."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"malformed scheme spec {text!r}")
    try:
        if head == "uniform":
            return DrawScheme("uniform", window=int(rest))
        if head == "geometric":
            return DrawScheme("geometric", decay=float(rest))
        if head == "bootstrap":
            parts = rest.split(",")
            decay = float(parts[1]) if len(parts) > 1 else None
            return DrawScheme("bootstrap", subintervals=int(parts[0]), decay=decay)
        if head == "timechange":
            s, n = rest.split(",")
            return DrawScheme("timechange", sigma=float(s), subintervals=int(n))
        if head == "scaling":
            return DrawScheme("scaling", sigma=float(rest))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed scheme spec {text!r}: {exc}") from None
    raise ValueError(f"unknown scheme kind {head!r} in {text!r}")


@dataclass(frozen=True)
class DrawMatrix:
    """Drawn period indices into a series of series_len periods: (K, alpha),
    or (K, alpha, n) for bootstrap composition."""

    indices: np.ndarray
    series_len: int


def _geometric_cdf(decay: float, n: int) -> np.ndarray:
    # truncated geometric over ages 1..n, renormalized
    t = np.arange(1, n + 1, dtype=float)
    return (1.0 - decay ** t) / (1.0 - decay ** n)


def effective_series(series: np.ndarray, scheme: DrawScheme, standardize: bool = False):
    """(eff, probs): the series the scheme samples (the recent window, the
    time-changed or rescaled series, else the series itself) and its exact
    evaluation weights (geometric only; None means equal). Draw any scheme
    over it with ``generate_draws(scheme, eff.size, ...)``."""
    if scheme.kind == "uniform":
        return series[:min(scheme.window, series.size)], None
    if scheme.kind == "geometric":
        t = np.arange(1, series.size + 1, dtype=float)
        pmf = (1.0 - scheme.decay) * scheme.decay ** (t - 1.0)
        return series, pmf / pmf.sum()
    if scheme.kind == "timechange":
        return time_change_series(series, scheme.sigma, scheme.subintervals,
                                  standardize=standardize), None
    if scheme.kind == "scaling":
        return (scale_series(series, scheme.sigma) if standardize
                else scheme.sigma * series), None
    return series, None


def generate_draws(scheme: DrawScheme, series_len: int, trials: int,
                   draws_per_trial: int, seed: int) -> DrawMatrix:
    """Deterministic draw-index matrix for the scheme over a series.

    `series_len` is the length of the series actually sampled, the
    ``effective_series`` of the scheme: uniform clips its window to it, and
    timechange and scaling draw uniformly over it. Cell (k, l) consumes the
    substream slot k*alpha + l (bootstrap: n slots per cell), so any sub-block
    is reproducible in isolation.
    """
    if series_len < 1:
        raise ValueError("series_len must be >= 1")
    if trials < 1 or draws_per_trial < 1:
        raise ValueError("trials and draws_per_trial must be >= 1")
    shape = (trials, draws_per_trial)
    if scheme.kind == "bootstrap":
        shape += (scheme.subintervals,)
    u = _kernels.uniforms(seed, 0, math.prod(shape))
    if scheme.decay is None:
        idx = _kernels.uniform_indices(u, min(scheme.window or series_len, series_len))
    else:
        idx = _kernels.cdf_indices(u, _geometric_cdf(scheme.decay, series_len))
    indices = idx.reshape(shape)
    indices.flags.writeable = False
    return DrawMatrix(indices=indices, series_len=series_len)


def materialize(draws: DrawMatrix, series: np.ndarray) -> np.ndarray:
    """Realized values per draw cell: lookup, or composed sums for bootstrap."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < draws.series_len:
        raise ValueError("series shorter than the draw matrix expects")
    if draws.indices.ndim == 3:
        return series[draws.indices].sum(axis=2)
    return series[draws.indices]


# ---------------------------------------------------------------------------
# Series preprocessing
# ---------------------------------------------------------------------------

_EWMA_DECAY = 0.94   # RiskMetrics daily decay
_EWMA_WINDOW = 20    # older increments per estimate


def _prepare_increments(raw) -> np.ndarray:
    x = np.asarray(raw, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("increment series must be nonempty and 1-d")
    return x


def ewma_volatility(increments) -> np.ndarray:
    """Rolling volatility per period from strictly older increments.

    Most-recent-first input: the estimate at position t uses positions
    t+1 .. t+_EWMA_WINDOW with weights _EWMA_DECAY**age (normalized, so a
    constant-magnitude series reproduces that magnitude). Trailing positions
    without any older data inherit the oldest computable estimate.
    """
    x = _prepare_increments(increments)
    n = x.size
    sq = x * x
    w = _EWMA_DECAY ** np.arange(_EWMA_WINDOW)
    out = np.full(n, np.nan)
    for t in range(n - 1):
        m = min(_EWMA_WINDOW, n - 1 - t)
        ww = w[:m]
        out[t] = math.sqrt(float(np.dot(ww, sq[t + 1:t + 1 + m]) / ww.sum()))
    if n > 1:
        out[-1] = out[-2]
    else:
        out[0] = abs(x[0]) if x[0] != 0.0 else 1.0
    return np.where(out > 0.0, out, 1.0)


def time_change_series(raw, sigma: float, subintervals: int, *,
                       standardize: bool = False) -> np.ndarray:
    """Resample most-recent-first sub-increments on the stretched clock.

    Each output period sums m = round(sigma^2 * subintervals) consecutive
    sub-increments, windows anchored at the most recent point; a partial
    oldest window is dropped. With `standardize`, sub-increments are first
    divided by their ``ewma_volatility``.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    if subintervals < 1:
        raise ValueError("subintervals must be >= 1")
    x = _prepare_increments(raw)
    m = int(round(sigma * sigma * subintervals))
    if m == 0:
        raise ValueError(f"sigma^2 * subintervals rounds to zero (sigma={sigma})")
    if standardize:
        x = x / ewma_volatility(x)
    periods = x.size // m
    if periods == 0:
        raise ValueError("series shorter than one stretched window")
    return x[:periods * m].reshape(periods, m).sum(axis=1)


def scale_series(raw, sigma: float) -> np.ndarray:
    """Most-recent-first increments divided by their ``ewma_volatility`` and
    rescaled to the current volatility level sigma."""
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    x = _prepare_increments(raw)
    return sigma * (x / ewma_volatility(x))
