"""Weighting measures on (0,1] and their spectral machinery.

A weighting measure mixes tail risk levels into a coherent, law-invariant,
comonotone-additive risk measure. Two functions drive everything downstream:

* ``spectrum(x)``   -- the risk spectrum: mass of ``1/level`` at or above x;
  nonincreasing, left-continuous, integrates to one.
* ``distortion(x)`` -- its running integral, a concave distortion of the unit
  interval with ``distortion(0) = 0`` and ``distortion(1) = 1``.

Two parametrisations are supported: finite mixtures of tail atoms (a single
atom is plain expected shortfall at that level) and the Beta(a, b) family with
density ``x^b (1-x)^(a-b-1) / B(b+1, a-b)``, whose integer members average the
b smallest of a independent draws. Mixtures are the canonical internal form
for atomic measures; ``tail(level)`` is stored as a one-atom mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError

__all__ = ["WeightingMeasure", "tail", "beta", "alpha", "mixture", "parse_measure",
           "gaussian_multiplier", "tail_gaussian_multiplier"]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class WeightingMeasure:
    """Immutable weighting measure, either a finite mixture or a Beta law.

    Construct through :func:`tail`, :func:`beta`, :func:`alpha`,
    :func:`mixture` or :func:`parse_measure`; the constructor validates but
    does not canonicalise.
    """

    kind: str                       # "mixture" | "beta"
    levels: np.ndarray = field(default=None)   # mixture: atom levels, ascending
    weights: np.ndarray = field(default=None)  # mixture: atom weights
    a: float = field(default=None)  # beta: first parameter (> -1); beta(a, a) keeps it
    b: float = field(default=None)  # beta: second parameter in (-1, a]

    @property
    def orders(self):
        """(A, B) for integers 1 <= B <= A, the measures whose Monte Carlo
        estimate averages the B smallest of A draws; None otherwise."""
        if self.a is None or not (self.a.is_integer() and self.b.is_integer()):
            return None
        return (int(self.a), int(self.b)) if 1 <= self.b <= self.a else None

    # -- evaluation ---------------------------------------------------------

    def spectrum(self, x):
        """Risk spectrum at x in (0, 1]; vectorised over x."""
        x_arr, scalar = _as_prob_array(x, lo_open=True)
        if self.kind == "mixture":
            out = self._mix_suffix()[np.searchsorted(self.levels, x_arr, side="left")]
        else:
            out = self._beta_spectrum(x_arr)
        return float(out[()]) if scalar else out

    def distortion(self, x):
        """Concave distortion (integral of the spectrum) at x in [0, 1]."""
        x_arr, scalar = _as_prob_array(x, lo_open=False)
        if self.kind == "mixture":
            out = np.minimum(x_arr[..., None] / self.levels, 1.0) @ self.weights
        else:
            from scipy import special

            out = special.betainc(self.b + 1.0, self.a - self.b, x_arr) \
                + x_arr * self._beta_spectrum(np.maximum(x_arr, 1e-300))
            out = np.where(x_arr == 0.0, 0.0, out)
        return float(out[()]) if scalar else out

    # -- helpers ------------------------------------------------------------

    def _mix_suffix(self) -> np.ndarray:
        # suffix[i] = sum_{j >= i} weight_j / level_j, suffix[J] = 0
        per = self.weights / self.levels
        return np.concatenate((np.cumsum(per[::-1])[::-1], [0.0]))

    def _beta_spectrum(self, x: np.ndarray) -> np.ndarray:
        from scipy import special

        a, b = self.a, self.b
        if b > 0:
            return (a / b) * (1.0 - special.betainc(b, a - b, x))
        # unbounded-spectrum regime (b <= 0): direct quadrature, cold path
        from scipy import integrate

        norm = special.beta(b + 1.0, a - b)

        def tail_integral(lo: float) -> float:
            if lo >= 1.0:
                return 0.0
            val, _ = integrate.quad(
                lambda t: t ** (b - 1.0) * (1.0 - t) ** (a - b - 1.0),
                lo, 1.0, limit=200)
            return val / norm

        flat = np.asarray(x, dtype=float).reshape(-1)
        out = np.array([tail_integral(v) for v in flat])
        return out.reshape(np.shape(x))


def _as_prob_array(x, lo_open: bool):
    arr = np.asarray(x, dtype=float)
    lo_bad = (arr <= 0.0) if lo_open else (arr < 0.0)
    if np.any(lo_bad) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        lo = "(0, 1]" if lo_open else "[0, 1]"
        raise ValueError(f"argument must lie in {lo}")
    return arr, arr.ndim == 0


# -- constructors -----------------------------------------------------------

def tail(level: float) -> WeightingMeasure:
    """Expected shortfall at the given level in (0, 1] (level 1 is -mean)."""
    return mixture([(level, 1.0)])


def mixture(atoms) -> WeightingMeasure:
    """Finite mixture of tail atoms, given as (level, weight) pairs."""
    atoms = list(atoms)
    if not atoms:
        raise ValueError("mixture needs at least one atom")
    levels = np.asarray([a[0] for a in atoms], dtype=float)
    weights = np.asarray([a[1] for a in atoms], dtype=float)
    if np.any(levels <= 0.0) or np.any(levels > 1.0):
        raise ValueError("mixture levels must lie in (0, 1]")
    if np.any(weights < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum()!r}")
    order = np.argsort(levels, kind="stable")
    levels, weights = levels[order].copy(), weights[order].copy()
    # merge duplicate levels so the suffix-sum lookup is well defined
    if levels.size > 1 and np.any(np.diff(levels) == 0.0):
        uniq, inv = np.unique(levels, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inv, weights)
        levels, weights = uniq, merged
    levels.flags.writeable = False
    weights.flags.writeable = False
    return WeightingMeasure(kind="mixture", levels=levels, weights=weights)


def beta(a: float, b: float) -> WeightingMeasure:
    """Beta-family measure; averages the b smallest of a draws for integers.

    b == a is accepted and maps to the point mass at level 1 (plain -mean),
    matching the standard closure of the family; that mixture keeps a and b,
    so its ``orders`` stay (a, a).
    """
    a, b = float(a), float(b)
    if not (a > -1.0):
        raise ValueError(f"first parameter must exceed -1, got {a}")
    if not (-1.0 < b <= a):
        raise ValueError(f"second parameter must lie in (-1, {a}], got {b}")
    if b == a:
        return replace(mixture([(1.0, 1.0)]), a=a, b=b)
    return WeightingMeasure(kind="beta", a=a, b=b)


def alpha(order: float) -> WeightingMeasure:
    """Shorthand for beta(order, 1): minus the expected minimum of `order` draws."""
    return beta(order, 1.0)


def parse_measure(text: str) -> WeightingMeasure:
    """Parse a measure spec string: tail:L, beta:A,B, alpha:A, mix:W@L,W@L,..."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"malformed measure spec {text!r} (expected kind:params)")
    try:
        if head == "tail":
            return tail(float(rest))
        if head == "alpha":
            return alpha(float(rest))
        if head == "beta":
            a_s, b_s = rest.split(",")
            return beta(float(a_s), float(b_s))
        if head == "mix":
            atoms = []
            for part in rest.split(","):
                w_s, l_s = part.split("@")
                atoms.append((float(l_s), float(w_s)))
            return mixture(atoms)
    except ValueError as exc:
        raise ValueError(f"malformed measure spec {text!r}: {exc}") from None
    raise ValueError(f"unknown measure kind {head!r} in {text!r}")


# -- Gaussian risk constant --------------------------------------------------

def tail_gaussian_multiplier(level: float) -> float:
    """Closed-form standard-deviation multiplier of expected shortfall."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    if level == 1.0:
        return 0.0
    from scipy import special

    q = special.ndtri(level)
    return float(np.exp(-0.5 * q * q) / (level * _SQRT_2PI))


def gaussian_multiplier(measure: WeightingMeasure) -> float:
    """Constant g with utility(N(m, s^2)) = m - g*s for the given measure.

    Atomic mixtures use the closed form per atom; Beta kinds integrate
    -NormalQuantile(x) * spectrum(x) adaptively (relative tolerance 1e-8).
    Unbounded-spectrum Beta kinds (second parameter <= 0) use the equivalent
    level-density form, integrating the per-level closed form against the
    Beta density; the multiplier can be finite there and is computed rather
    than rejected, with DivergenceError on quadrature failure.
    """
    if measure.kind == "mixture":
        return float(sum(w * tail_gaussian_multiplier(l)
                         for l, w in zip(measure.levels, measure.weights)))

    from scipy import integrate, special

    if measure.b <= 0.0:
        # level-density form with the algebraic endpoint weights handled by
        # the quadrature itself: density = lam^b (1-lam)^(a-b-1) / B(b+1, a-b)
        norm = special.beta(measure.b + 1.0, measure.a - measure.b)

        def per_level(lam: float) -> float:
            # endpoint evaluations clamp into (0, 1]; the multiplier grows
            # only like sqrt(log) at zero, so the clamp is inconsequential
            return tail_gaussian_multiplier(min(max(lam, 1e-12), 1.0)) / norm

        with np.errstate(over="ignore"):
            val, err = integrate.quad(
                per_level, 0.0, 1.0,
                weight="alg", wvar=(measure.b, measure.a - measure.b - 1.0),
                limit=400, epsrel=1e-9, epsabs=0.0)
    else:
        def integrand(x: float) -> float:
            return -special.ndtri(x) * float(measure._beta_spectrum(np.asarray(x)))

        with np.errstate(over="ignore"):
            val, err = integrate.quad(integrand, 0.0, 1.0,
                                      points=[1e-9, 0.5, 1.0 - 1e-9],
                                      limit=400, epsrel=1e-9, epsabs=0.0)
    if not np.isfinite(val) or (abs(err) > 1e-8 * max(abs(val), 1.0)):
        raise DivergenceError(
            "Gaussian multiplier quadrature did not converge for "
            f"beta:{measure.a!r},{measure.b!r} (value={val!r}, error={err!r})")
    return float(val)
