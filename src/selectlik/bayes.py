"""Grid-quadrature Bayesian fit with weakly informative priors.

A standard-normal prior on theta0 and a half-normal prior on tau are enough
to produce finite, well-behaved credible sets for the selection model; the
prior mass dies off so fast along the likelihood ridge that the posterior
ignores it.  Two free parameters (weights held fixed) make deterministic
grid quadrature both exact enough and easier to test than a sampler.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import norm_logpdf
from .exceptions import GridTooSmallError, InvalidInputError
from .estimation import GridSpec, loglik_grid
from .model import log_likelihood

__all__ = ["PriorSpec", "PosteriorGrid", "log_posterior", "grid_posterior"]

_LOG_TWO = math.log(2.0)


@dataclass(frozen=True)
class PriorSpec:
    """N(0, 1) prior on theta0 and half-normal(scale) prior on tau."""

    tau_scale: float = 1.0

    def __post_init__(self):
        if not self.tau_scale > 0:
            raise InvalidInputError("tau_scale must be positive")

    def logpdf(self, theta0, tau):
        theta0 = np.asarray(theta0, dtype=float)
        tau = np.asarray(tau, dtype=float)
        out = (
            norm_logpdf(theta0)
            + _LOG_TWO
            + norm_logpdf(tau, 0.0, self.tau_scale)
        )
        out = np.where(tau >= 0, out, -np.inf)
        return float(out) if out.ndim == 0 else out


DEFAULT_GRID = GridSpec(
    theta_min=-5.0, theta_max=5.0, tau_min=0.0, tau_max=5.0, n_theta=400, n_tau=400
)


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior over a (theta0, tau) rectangle.

    ``log_post[i, j]`` is the unnormalized log posterior at
    (theta_axis[i], tau_axis[j]); ``normalizer`` its log integral under
    trapezoidal weights.  ``theta_marginal`` / ``tau_marginal`` are marginal
    densities on the axes; credible intervals are equal-tailed.
    """

    theta_axis: np.ndarray
    tau_axis: np.ndarray
    log_post: np.ndarray = field(repr=False)
    normalizer: float
    theta_marginal: np.ndarray = field(repr=False)
    tau_marginal: np.ndarray = field(repr=False)
    credible_intervals: dict


def log_posterior(params, data, prior_spec=PriorSpec()):
    """Log posterior density (up to a constant): log-likelihood plus log prior."""
    return log_likelihood(data, params) + float(
        prior_spec.logpdf(params.theta0, params.tau)
    )


def _trapezoid_log_weights(axis):
    w = np.full(len(axis), axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.log(w)


def _equal_tailed_interval(axis, marginal, mass):
    """Equal-tailed interval from a marginal density via its trapezoid CDF."""
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (marginal[1:] + marginal[:-1]) * np.diff(axis))]
    )
    cdf /= cdf[-1]
    lo_q, hi_q = (1.0 - mass) / 2.0, 1.0 - (1.0 - mass) / 2.0
    return (
        float(np.interp(lo_q, cdf, axis)),
        float(np.interp(hi_q, cdf, axis)),
    )


def grid_posterior(data, steps, grid_spec=DEFAULT_GRID, prior_spec=PriorSpec(), mass=0.95):
    """Normalized posterior grid with marginals and credible intervals.

    Selection weights are held fixed at ``steps``; only (theta0, tau) are
    random.  The log-likelihood comes from the chunked ``loglik_grid`` loop,
    so memory beyond the (theta0, tau) arrays stays bounded whatever the grid
    size or the number of studies.  Raises GridTooSmallError when over 99% of
    the posterior mass sits in the boundary cells, i.e. the rectangle misses
    the posterior bulk.
    """
    grid = loglik_grid(data, grid_spec, steps)
    theta_axis, tau_axis = grid.theta_axis, grid.tau_axis
    log_post = grid.values + prior_spec.logpdf(theta_axis[:, None], tau_axis[None, :])

    lw_theta = _trapezoid_log_weights(theta_axis)
    lw_tau = _trapezoid_log_weights(tau_axis)
    log_cell_mass = log_post + lw_theta[:, None] + lw_tau[None, :]
    m = log_cell_mass.max()
    normalizer = float(m + np.log(np.exp(log_cell_mass - m).sum()))

    cell_mass = np.exp(log_cell_mass - normalizer)
    boundary = cell_mass.sum() - cell_mass[1:-1, 1:-1].sum()
    if boundary > 0.99:
        raise GridTooSmallError(
            f"{boundary:.1%} of the posterior mass sits on the grid boundary"
        )

    # marginal densities via quadrature over the other axis
    theta_marginal = np.exp(log_post - normalizer + lw_tau[None, :]).sum(axis=1)
    tau_marginal = np.exp(log_post - normalizer + lw_theta[:, None]).sum(axis=0)
    intervals = {
        "theta0": _equal_tailed_interval(theta_axis, theta_marginal, mass),
        "tau": _equal_tailed_interval(tau_axis, tau_marginal, mass),
    }
    return PosteriorGrid(
        theta_axis=theta_axis,
        tau_axis=tau_axis,
        log_post=log_post,
        normalizer=normalizer,
        theta_marginal=theta_marginal,
        tau_marginal=tau_marginal,
        credible_intervals=intervals,
    )
