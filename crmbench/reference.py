"""Plain reference evaluators the output checks compare the program against.

Written from the definitions (Acerbi 2002, "Spectral measures of risk"):
sort the scenarios, merge equal values, push cumulative probabilities through
the distortion, take increments as weights and sum exactly with math.fsum.
They share no code with the package, so a regression in its exact layer shows
as a mismatch here.
"""

from __future__ import annotations

import math

import numpy as np


def distortion(spec: str):
    """D(u) for ``tail:L`` and ``mix:W@L,...`` specs: sum of W * min(u/L, 1)."""
    head, _, rest = spec.partition(":")
    if head == "tail":
        atoms = [(1.0, float(rest))]
    elif head == "mix":
        atoms = [(float(w), float(lvl)) for w, lvl in
                 (part.split("@") for part in rest.split(","))]
    else:
        raise ValueError(f"no reference distortion for {spec!r}")
    return lambda u: sum(w * np.minimum(u / lvl, 1.0) for w, lvl in atoms)


def _weights(mass, dist):
    cum = np.cumsum(mass)
    cum[-1] = 1.0
    return np.diff(dist(cum), prepend=0.0)


def _equal_probs(probs, n):
    return np.full(n, 1.0 / n) if probs is None else np.asarray(probs, dtype=float)


def spectral_risk(values, probs, dist) -> float:
    """Risk of the discrete law (values, probs) under distortion `dist`."""
    values = np.asarray(values, dtype=float)
    uniq, block = np.unique(values, return_inverse=True)
    mass = np.bincount(block, weights=_equal_probs(probs, values.size))
    return -math.fsum((uniq * _weights(mass, dist)).tolist())


def contribution(x, w, probs, dist) -> float:
    """Spectral contribution of x to w: x averaged (probability-weighted) over
    each block of equal w, weighted by the distorted block masses of w."""
    x = np.asarray(x, dtype=float)
    probs = _equal_probs(probs, x.size)
    _, block = np.unique(np.asarray(w, dtype=float), return_inverse=True)
    mass = np.bincount(block, weights=probs)
    xbar = np.bincount(block, weights=probs * x) / mass
    return -math.fsum((xbar * _weights(mass, dist)).tolist())


def tail_correlation(x, w, dist) -> float:
    """Contribution utility of x to a tie-free w over the utility of x alone."""
    return contribution(x, w, None, dist) / spectral_risk(x, None, dist)


def geometric_probs(decay: float, n: int) -> np.ndarray:
    """Truncated geometric weights over ages 1..n (position 0 most recent)."""
    pmf = (1.0 - decay) * decay ** np.arange(n, dtype=float)
    return pmf / pmf.sum()


def ewma_scaled(x: np.ndarray, sigma: float, decay: float = 0.94,
                window: int = 20) -> np.ndarray:
    """Increments over a rolling EWMA volatility of strictly older increments
    (most recent first), rescaled to sigma: filtered historical simulation."""
    n = x.size
    w = decay ** np.arange(window)
    vol = np.empty(n)
    for t in range(n - 1):
        m = min(window, n - 1 - t)
        vol[t] = math.sqrt(float(np.dot(w[:m], x[t + 1:t + 1 + m] ** 2) / w[:m].sum()))
    vol[-1] = vol[-2]
    vol[vol <= 0.0] = 1.0
    return sigma * x / vol


def beta_mc(series, probs, a: int, b: int, n_sub: int, trials: int, seed: int):
    """Independent Monte Carlo of minus the mean of the b smallest of a draws,
    each draw summing n_sub increments picked with probabilities `probs`.
    Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(series.size, size=(trials, a, n_sub), p=probs)
    draws = series[idx].sum(axis=2)
    per_trial = np.sort(draws, axis=1)[:, :b].mean(axis=1)
    return -float(per_trial.mean()), float(per_trial.std(ddof=1) / math.sqrt(trials))
