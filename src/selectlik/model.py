"""Core domain types and exact (log-)densities for step-function selection models.

The observed effect of a published study follows a reweighted normal: the
random-effects marginal N(theta0, sqrt(tau^2 + se^2)) multiplied by a step
function of the one-sided p-value and renormalized.  Everything here is
computed in log space so that band masses survive means thousands of
standard deviations away from the selection cutoffs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._normal import log_gauss_mass, norm_logpdf
from .exceptions import InvalidInputError

_TINY = np.finfo(float).tiny
_ONE_MINUS_EPS = 1.0 - np.finfo(float).eps

__all__ = [
    "StudyObservation",
    "SelectionSteps",
    "ModelParams",
    "MixtureDecomposition",
    "p_value",
    "band_index",
    "step_weight",
    "marginal_logpdf",
    "basic_logpdf",
    "truncated_normal_logpdf",
    "mixture_probabilities",
    "log_selection_normalizer",
    "hedges_logpdf",
    "hedges_cdf",
    "log_likelihood",
]


@dataclass(frozen=True)
class StudyObservation:
    """One published study: effect estimate and its known standard error."""

    effect: float
    se: float

    def __post_init__(self):
        if not math.isfinite(self.effect):
            raise InvalidInputError(f"effect must be finite, got {self.effect}")
        if not (self.se > 0 and math.isfinite(self.se)):
            raise InvalidInputError(f"se must be positive and finite, got {self.se}")


@dataclass(frozen=True)
class SelectionSteps:
    """Step selection function on p-value bands.

    ``cuts`` is the vector alpha_0..alpha_K with alpha_0 = 0 and alpha_K = 1,
    strictly increasing.  ``weights`` is rho_1..rho_K: per-band publication
    probabilities in (0, 1], first weight 1 (identifiability), non-increasing
    (lower p-values are never less publishable).  Band k is the right-closed
    interval (alpha_{k-1}, alpha_k].
    """

    cuts: tuple
    weights: tuple

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "weights", weights)
        if len(cuts) < 2 or len(weights) != len(cuts) - 1:
            raise InvalidInputError(
                f"need K+1 cuts and K weights, got {len(cuts)} and {len(weights)}"
            )
        if cuts[0] != 0.0 or cuts[-1] != 1.0:
            raise InvalidInputError("cuts must start at exactly 0 and end at exactly 1")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise InvalidInputError("cuts must be strictly increasing")
        if weights[0] != 1.0:
            raise InvalidInputError("first weight must be exactly 1")
        if any(w <= 0.0 or w > 1.0 for w in weights):
            raise InvalidInputError("weights must lie in (0, 1]")
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise InvalidInputError("weights must be non-increasing")

    @classmethod
    def uniform(cls):
        """The no-selection model: a single band with weight 1."""
        return cls(cuts=(0.0, 1.0), weights=(1.0,))

    @property
    def n_bands(self):
        return len(self.weights)

    @property
    def cuts_array(self):
        return np.asarray(self.cuts)

    @property
    def weights_array(self):
        return np.asarray(self.weights)

    @property
    def log_weights(self):
        return np.log(self.weights_array)

    @property
    def z_cutoffs(self):
        """c_k = Phi^{-1}(1 - alpha_k) for k = 0..K; c_0 = +inf, c_K = -inf.

        These are the band boundaries on the standardized effect scale
        x/se, decreasing in k.
        """
        with np.errstate(divide="ignore"):
            return ndtri(1.0 - self.cuts_array)


@dataclass(frozen=True)
class ModelParams:
    """Population effect theta0, heterogeneity sd tau, and selection steps."""

    theta0: float
    tau: float
    steps: SelectionSteps

    def __post_init__(self):
        if not math.isfinite(self.theta0):
            raise InvalidInputError(f"theta0 must be finite, got {self.theta0}")
        if not (self.tau >= 0 and math.isfinite(self.tau)):
            raise InvalidInputError(f"tau must be >= 0 and finite, got {self.tau}")


@dataclass(frozen=True)
class MixtureDecomposition:
    """Mixture view of the selection density: band probabilities and bounds.

    ``component_bounds[k]`` is the effect-scale interval [lo, hi) of band
    k+1; the intervals partition the real line from the top band downward.
    """

    probs: np.ndarray
    component_bounds: tuple
    log_normalizer: float = field(default=float("nan"))


def p_value(x, sigma):
    """One-sided p-value Phi(-x/sigma) of an observed effect.

    Clipped into the open interval (0, 1) at the floating-point boundary so
    the result always lands in a selection band.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise InvalidInputError("sigma must be positive")
    u = ndtr(-np.asarray(x, dtype=float) / sigma)
    u = np.clip(u, _TINY, _ONE_MINUS_EPS)
    return float(u) if u.ndim == 0 else u


def band_index(u, steps):
    """Zero-based index k-1 of the band (alpha_{k-1}, alpha_k] containing u."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise InvalidInputError("p-value must lie in (0, 1]")
    idx = np.searchsorted(steps.cuts_array, u_arr, side="left") - 1
    return int(idx) if u_arr.ndim == 0 else idx


def step_weight(u, steps):
    """Publication probability rho_k for the band containing p-value u."""
    k = band_index(u, steps)
    w = steps.weights_array[k]
    return float(w) if np.isscalar(k) or np.asarray(k).ndim == 0 else w


def marginal_logpdf(x, theta0, tau, sigma):
    """Log density of the random-effects marginal N(theta0, sqrt(tau^2+sigma^2))."""
    if np.any(np.asarray(sigma) <= 0):
        raise InvalidInputError("sigma must be positive")
    if np.any(np.asarray(tau) < 0):
        raise InvalidInputError("tau must be >= 0")
    return norm_logpdf(x, theta0, np.hypot(tau, sigma))


def truncated_normal_logpdf(x, mean, sd, a, b):
    """Log density of N(mean, sd) truncated to [a, b); -inf outside.

    The normalizer is computed from tail differences in log space, so the
    result stays accurate when the window is thousands of sds from the mean.
    ``a`` may be -inf and ``b`` may be +inf.
    """
    if not (sd > 0):
        raise InvalidInputError("sd must be positive")
    if not a < b:
        raise InvalidInputError(f"empty truncation interval [{a}, {b})")
    x = np.asarray(x, dtype=float)
    log_mass = log_gauss_mass((a - mean) / sd, (b - mean) / sd)
    with np.errstate(invalid="ignore"):
        out = norm_logpdf(x, mean, sd) - log_mass
    out = np.where((x >= a) & (x < b), out, -np.inf)
    return float(out) if out.ndim == 0 else out


def basic_logpdf(x, theta0, tau, sigma, alpha_cut):
    """Log density of the significance-only publication model.

    Only effects with x/sigma strictly above Phi^{-1}(1 - alpha_cut) are
    published; the density is the random-effects marginal truncated to that
    region.  Returns -inf (log-zero) inside the censored region.
    """
    if not (sigma > 0):
        raise InvalidInputError("sigma must be positive")
    if not (tau >= 0):
        raise InvalidInputError("tau must be >= 0")
    if not (0.0 < alpha_cut < 1.0):
        raise InvalidInputError("alpha_cut must lie in (0, 1)")
    cutoff = sigma * ndtri(1.0 - alpha_cut)
    s = np.hypot(tau, sigma)
    x = np.asarray(x, dtype=float)
    log_mass = log_gauss_mass((cutoff - theta0) / s, np.inf)
    with np.errstate(invalid="ignore"):
        out = norm_logpdf(x, theta0, s) - log_mass
    out = np.where(x / sigma > ndtri(1.0 - alpha_cut), out, -np.inf)
    return float(out) if out.ndim == 0 else out


def log_band_masses(theta0, tau, sigma, steps):
    """Log probabilities of each p-value band under the marginal normal.

    Broadcasts over ``theta0``, ``tau`` and ``sigma``; the band axis (length
    K) is appended last.  Band k covers effects in [sigma*c_k, sigma*c_{k-1})
    where c_k = Phi^{-1}(1 - alpha_k).
    """
    theta0 = np.asarray(theta0, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = np.hypot(tau, sigma)
    cz = steps.z_cutoffs  # (K+1,), decreasing, endpoints +-inf
    z = (sigma[..., None] * cz - theta0[..., None]) / s[..., None]
    return log_gauss_mass(z[..., 1:], z[..., :-1])


def log_selection_normalizer(params, sigma):
    """Log of the overall acceptance probability c = sum_k rho_k * mass_k.

    ``c`` is both the density normalizer of the selection model and the
    marginal probability that a produced study is published.
    """
    if np.any(np.asarray(sigma) <= 0):
        raise InvalidInputError("sigma must be positive")
    lbm = log_band_masses(params.theta0, params.tau, sigma, params.steps)
    out = _logsumexp_last(params.steps.log_weights + lbm)
    return float(out) if np.ndim(out) == 0 else out


def mixture_probabilities(params, sigma):
    """Band mixture probabilities pi_k = rho_k * mass_k / c.

    Computed in log space and exponentiated once, so the vector sums to 1
    even when individual band masses underflow a direct CDF difference.
    """
    if not (np.ndim(sigma) == 0 and sigma > 0):
        raise InvalidInputError("sigma must be a positive scalar")
    steps = params.steps
    lbm = log_band_masses(params.theta0, params.tau, float(sigma), steps)
    log_terms = steps.log_weights + lbm
    log_c = _logsumexp_last(log_terms)
    probs = np.exp(log_terms - log_c)
    probs /= probs.sum()
    cz = steps.z_cutoffs
    bounds = tuple(
        (float(sigma * cz[k + 1]), float(sigma * cz[k]))
        for k in range(steps.n_bands)
    )
    return MixtureDecomposition(
        probs=probs, component_bounds=bounds, log_normalizer=float(log_c)
    )


def hedges_logpdf(x, params, sigma):
    """Log density of the step-function selection model at effect x.

    Equals log(rho_k) + marginal_logpdf - log(c) on band k, which matches
    the mixture form sum_k pi_k * truncated-normal_k pointwise.
    """
    if not (np.ndim(sigma) == 0 and sigma > 0):
        raise InvalidInputError("sigma must be a positive scalar")
    sigma = float(sigma)
    steps = params.steps
    x = np.asarray(x, dtype=float)
    u = p_value(x, sigma)
    k = band_index(u, steps)
    lbm = log_band_masses(params.theta0, params.tau, sigma, steps)
    log_c = _logsumexp_last(steps.log_weights + lbm)
    out = (
        steps.log_weights[k]
        + norm_logpdf(x, params.theta0, np.hypot(params.tau, sigma))
        - log_c
    )
    return float(out) if out.ndim == 0 else out


def hedges_cdf(x, params, sigma):
    """CDF of the selection model, summed over bands in log space.

    P(X <= x) = sum_k rho_k * P(band k, X <= x) / c, where the part of band k
    below x is a log_gauss_mass over the band's window cut at x.  All bands
    are taken at once, so the CDF stays accurate when every band sits far in
    a tail of the marginal (as on the ridge).
    """
    if not (np.ndim(sigma) == 0 and sigma > 0):
        raise InvalidInputError("sigma must be a positive scalar")
    steps = params.steps
    x = np.asarray(x, dtype=float)
    s = np.hypot(params.tau, sigma)
    z = (sigma * steps.z_cutoffs - params.theta0) / s  # (K+1,), decreasing
    lo, hi = z[1:], z[:-1]  # band k is [lo_k, hi_k) on the standardized scale
    zx = np.clip(((x - params.theta0) / s)[..., None], lo, hi)
    log_below = _logsumexp_last(steps.log_weights + log_gauss_mass(lo, zx))
    log_c = _logsumexp_last(steps.log_weights + log_gauss_mass(lo, hi))
    out = np.minimum(np.exp(log_below - log_c), 1.0)
    return float(out) if out.ndim == 0 else out


def _study_arrays(data, steps):
    """Effects, standard errors and zero-based band indices of the studies."""
    if len(data) == 0:
        raise InvalidInputError("data must contain at least one study")
    x = np.array([s.effect for s in data])
    se = np.array([s.se for s in data])
    return x, se, band_index(p_value(x, se), steps)


def log_likelihood(data, params):
    """Sum of selection-model log densities over the studies."""
    x, se, k = _study_arrays(data, params.steps)
    return float(
        loglik_terms(x, se, k, params.theta0, params.tau, params.steps).sum()
    )


def loglik_terms(x, se, bands, theta0, tau, steps):
    """Per-study log densities, broadcasting theta0/tau against the studies.

    ``x``, ``se`` and ``bands`` are study vectors (length N); ``theta0`` and
    ``tau`` may carry extra leading axes (e.g. a grid of shape (C, 1)), in
    which case the result has shape (..., N).  This is the fast path behind
    log_likelihood and the contour grids.
    """
    theta0 = np.asarray(theta0, dtype=float)
    tau = np.asarray(tau, dtype=float)
    lbm = log_band_masses(theta0, tau, se, steps)  # (..., N, K)
    log_c = _logsumexp_last(steps.log_weights + lbm)
    return (
        steps.log_weights[bands]
        + norm_logpdf(x, theta0, np.hypot(tau, se))
        - log_c
    )


def _logsumexp_last(a):
    """Log-sum-exp along the last axis, tolerating all -inf rows."""
    m = np.max(a, axis=-1)
    m_safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        out = m_safe + np.log(np.exp(a - m_safe[..., None]).sum(axis=-1))
    return np.where(np.isneginf(m), -np.inf, out)
