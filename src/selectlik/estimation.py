"""Maximum likelihood, contour grids, and confidence-region diagnostics.

The optimizer is a multi-start Nelder-Mead over an unconstrained
reparameterization (tau through exp, selection weights through cumulative
negative-softplus increments), because the likelihood ridge defeats
curvature-based methods away from the optimum.  The diameter probe walks the
ray (theta0, tau) = (-n, sqrt(n)) with the witness mixture and compares the
values against the likelihood-ratio threshold, which is how the
infinite-diameter pathology shows up at desk scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.stats import chi2

from ._normal import norm_logpdf
from .asymptotics import limit_loglik, witness_loglik
from .exceptions import InvalidInputError, NoRidgeError, NonConvergenceError
from .model import (
    ModelParams,
    SelectionSteps,
    _logsumexp_last,
    _study_arrays,
    log_band_masses,
    log_likelihood,
    loglik_terms,
)

__all__ = [
    "FitResult",
    "LogLikGrid",
    "GridSpec",
    "ProbePoint",
    "RegionProbeReport",
    "ConfidenceRegion",
    "fit_mle",
    "loglik_grid",
    "ridge_slope",
    "lr_confidence_region",
    "diameter_probe",
    "profile_theta_loglik",
    "profile_theta_interval",
]

DEFAULT_PROBE_NS = (10.0, 100.0, 1000.0, 10000.0)

_TAU_FLOOR = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit."""

    params_hat: ModelParams
    loglik_hat: float
    converged: bool
    n_restarts_used: int
    gradient_norm_at_opt: float


@dataclass(frozen=True)
class LogLikGrid:
    """Dense log-likelihood evaluation over a (theta0, tau) rectangle.

    ``values[i, j]`` is the log-likelihood at (theta_axis[i], tau_axis[j]).
    ``profiled_weights`` records whether selection weights were maximized
    out at each cell (True) or held at ``rho_fixed`` (False);
    ``failed_cells`` counts the profiled cells whose weight solve did not
    converge.
    """

    theta_axis: np.ndarray
    tau_axis: np.ndarray
    values: np.ndarray
    rho_fixed: SelectionSteps
    profiled_weights: bool = False
    failed_cells: int = 0


@dataclass(frozen=True)
class GridSpec:
    """Rectangle and resolution for grid evaluations.

    Both ranges must be finite and nonempty, tau nonnegative, and each axis
    needs at least 2 points.
    """

    theta_min: float
    theta_max: float
    tau_min: float
    tau_max: float
    n_theta: int = 100
    n_tau: int = 100

    def __post_init__(self):
        bounds = (self.theta_min, self.theta_max, self.tau_min, self.tau_max)
        if not all(math.isfinite(b) for b in bounds):
            raise InvalidInputError("grid ranges must be finite")
        if not (self.theta_min < self.theta_max and self.tau_min < self.tau_max):
            raise InvalidInputError("grid ranges must be nonempty")
        if self.n_theta < 2 or self.n_tau < 2:
            raise InvalidInputError("need at least 2 points per axis")
        if self.tau_min < 0:
            raise InvalidInputError("tau range must be nonnegative")

    @property
    def theta_axis(self):
        return np.linspace(self.theta_min, self.theta_max, self.n_theta)

    @property
    def tau_axis(self):
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)


@dataclass(frozen=True)
class ProbePoint:
    """One evaluation on the witness ray."""

    n: float
    theta0: float
    tau: float
    loglik: float
    accepted: bool


@dataclass(frozen=True)
class RegionProbeReport:
    """Witness-ray probe of a likelihood-ratio confidence region.

    ``diameter_lower_bound`` is sqrt(theta0^2 + tau^2) of the largest
    accepted probe (the joint-parameter size function); ``unbounded`` is set
    when the ray's limiting log-likelihood itself clears the threshold, so
    every sufficiently large n would be accepted.
    """

    level: float
    chi2_threshold: float
    probed_ray: tuple
    max_accepted_n: float | None
    unbounded: bool
    diameter_lower_bound: float
    limit_loglik: float


@dataclass(frozen=True)
class ConfidenceRegion:
    """Grid indicator of a joint LR region plus the witness-ray probe."""

    level: float
    chi2_threshold: float
    loglik_hat: float
    grid: LogLikGrid
    accept: np.ndarray = field(repr=False)
    probe: RegionProbeReport


def _weights_from_increments(d):
    """rho_1..rho_K from K-1 unconstrained increments, via negative softplus.

    Weights are floored at the smallest normal float: with no study in the
    last band the likelihood keeps rising as that weight falls, and the
    optimizer would otherwise drive it to an exact 0, outside the model.
    """
    eta = -np.cumsum(np.logaddexp(0.0, np.asarray(d, dtype=float)))
    return np.concatenate([[1.0], np.maximum(np.exp(eta), np.finfo(float).tiny)])


def _increments_from_weights(weights):
    eta = np.log(np.asarray(weights, dtype=float))
    gaps = np.maximum(eta[:-1] - eta[1:], 1e-6)
    # invert softplus: d = log(exp(gap) - 1)
    return np.log(np.expm1(gaps))


def fit_mle(
    data,
    steps,
    free_weights=False,
    n_restarts=8,
    xatol=1e-8,
    fatol=1e-10,
    maxiter=None,
):
    """Maximize the selection-model likelihood over theta0, tau (and weights).

    ``steps`` supplies the cut vector; with ``free_weights`` the weight
    vector is estimated too (non-increasing, in (0, 1], first weight pinned
    at 1), otherwise it is held fixed.  Multi-start Nelder-Mead; the best
    restart wins.  Raises NonConvergenceError (carrying the best point) if
    no restart met the termination criteria.
    """
    x, se, bands = _study_arrays(data, steps)
    if len(data) < 2:
        raise InvalidInputError("need at least two studies to fit")
    if free_weights and steps.n_bands < 2:
        raise InvalidInputError("free-weight fitting needs at least two bands")
    cuts = steps.cuts

    def unpack(p):
        tau = math.exp(min(p[1], 50.0))
        if free_weights:
            w = _weights_from_increments(p[2:])
            st = SelectionSteps(cuts=cuts, weights=tuple(w))
        else:
            st = steps
        return p[0], max(tau, _TAU_FLOOR), st

    def objective(p):
        theta0, tau, st = unpack(p)
        return -float(loglik_terms(x, se, bands, theta0, tau, st).sum())

    mean = float(np.mean(x))
    sd = max(float(np.std(x, ddof=1)) if len(x) > 1 else 1.0, 1e-3)
    starts = [
        (mean - 2 * sd, 0.01),
        (mean - 2 * sd, 0.5 * sd),
        (mean - 2 * sd, 2 * sd),
        (mean + 2 * sd, 0.01),
        (mean + 2 * sd, 0.5 * sd),
        (mean + 2 * sd, 2 * sd),
        (mean, 0.01),
        (mean, sd),
    ][:n_restarts]
    if free_weights:
        d0 = _increments_from_weights(steps.weights_array)
        starts = [np.concatenate([[t], [math.log(tau)], d0]) for t, tau in starts]
    else:
        starts = [np.array([t, math.log(tau)]) for t, tau in starts]

    best = None
    any_success = False
    for p0 in starts:
        res = minimize(
            objective,
            p0,
            method="Nelder-Mead",
            options={
                "xatol": xatol,
                "fatol": fatol,
                "maxiter": maxiter or 400 * len(p0),
                "maxfev": maxiter or 400 * len(p0),
            },
        )
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res

    theta0_hat, tau_hat, steps_hat = unpack(best.x)
    grad_norm = _fd_gradient_norm(objective, best.x)
    result = FitResult(
        params_hat=ModelParams(theta0=theta0_hat, tau=tau_hat, steps=steps_hat),
        loglik_hat=-float(best.fun),
        converged=any_success,
        n_restarts_used=len(starts),
        gradient_norm_at_opt=grad_norm,
    )
    if not any_success:
        raise NonConvergenceError("no restart met the termination criteria", result)
    return result


def _fd_gradient_norm(objective, p, h=1e-5):
    g = np.empty(len(p))
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = h
        g[i] = (objective(p + e) - objective(p - e)) / (2 * h)
    return float(np.linalg.norm(g))


# The weight profile works on log-weight increments d (eta = L d, eta_1 = 0)
# in this box; the lower edge stands in for a band weight of zero.
_D_LO, _D_HI = -500.0, 0.0
# Cells x studies x bands held at once by a grid chunk: bounds the working
# arrays at a few hundred kB whatever the grid size or the number of studies.
_CHUNK_ELEMS = 2**16
# Newton steps are capped in max-norm: on far-left cells the Hessian vanishes
# and an uncapped step overshoots straight to the box edge.
_MAX_STEP = 16.0
_PG_TOL = 1e-10
# Bounds within this distance (or the projected-gradient size, if smaller) of
# a variable whose gradient pushes into them are held fixed for the Newton step.
_EPS_ACTIVE = 1e-3
_ARMIJO = 1e-4
_MAX_ITER = 500
_MAX_HALVINGS = 50


def _eta(d):
    """Log weights eta = (0, cumsum(d)) from increments d, batched over rows."""
    zero = np.zeros(d.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(d, axis=-1)], axis=-1)


def _profile_value(lbm, nk, d):
    """nk . eta - sum_i logsumexp_k(lbm_ik + eta_k) for each cell (no base)."""
    eta = _eta(d)
    return eta @ nk - _logsumexp_last(lbm + eta[:, None, :]).sum(axis=-1)


def _profile_gain(pi, nk, step):
    """Exact change of the profile objective for a step, from the softmax pi.

    log(sum_k pi_ik exp(deta_k)) is taken as log1p of the expm1 form, so a
    tiny step gives a gain accurate relative to itself rather than to the
    objective; where that sum nears -1 the direct form is used instead.
    """
    deta = _eta(step)
    s = np.einsum("cnk,ck->cn", pi, np.expm1(deta))
    direct = np.log(np.einsum("cnk,ck->cn", pi, np.exp(deta)))
    per_study = np.where(s > -0.5, np.log1p(np.maximum(s, -0.5)), direct)
    return deta @ nk - per_study.sum(axis=-1)


def _profile_chunk(lbm, nk, d_fixed):
    """Maximize the log-likelihood over the weights at every cell of a chunk.

    ``lbm`` is (C, N, K) log band masses, ``nk`` the band counts.  The
    objective is concave in eta, so a projected Newton ascent on d in the box
    (Bertsekas 1982: epsilon-active bounds take a gradient step, the free
    block a Newton step) converges from either start: rho_fixed's increments
    or the pooled closed form eta_k = log n_k - logsumexp_i lbm_ik, which is
    exact when every se is equal.  Each cell starts from the better of the
    two and accepts only ascent steps, so it ends at or above its fixed-weight
    value.  Returns the values (without the normal-density base) and a mask
    of the cells whose projected gradient did not reach ``_PG_TOL``.
    """
    C, _, K = lbm.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_pool = np.log(nk) - _logsumexp_last(np.swapaxes(lbm, 1, 2))
        d_pool = np.diff(eta_pool, axis=-1)
    # an empty band gives -inf increments into it and +inf or nan out of it
    d_pool = np.clip(np.nan_to_num(d_pool), _D_LO, _D_HI)
    d_fix = np.broadcast_to(d_fixed, d_pool.shape)
    use_pool = _profile_value(lbm, nk, d_pool) > _profile_value(lbm, nk, d_fix)
    d = np.where(use_pool[:, None], d_pool, d_fix)

    diag = np.arange(K - 1)
    failed = np.zeros(C, dtype=bool)
    todo = np.arange(C)
    for _ in range(_MAX_ITER):
        dd = d[todo]
        v = lbm[todo] + _eta(dd)[:, None, :]
        pi = np.exp(v - v.max(axis=-1, keepdims=True))
        pi /= pi.sum(axis=-1, keepdims=True)
        col = pi.sum(axis=1)
        # d eta_k / d d_j = 1 for k > j: gradient and Hessian in d are
        # reverse cumulative sums of those in eta, first entry dropped
        g = np.cumsum((nk - col)[:, ::-1], axis=-1)[:, ::-1][:, 1:]
        pg = np.clip(dd + g, _D_LO, _D_HI) - dd
        w = np.abs(pg).max(axis=-1)
        open_ = w > _PG_TOL
        todo, dd, pi, col, g, w = (a[open_] for a in (todo, dd, pi, col, g, w))
        if todo.size == 0:
            break
        # negative Hessian in eta: diag(sum_i pi_i) - sum_i pi_i pi_i^T
        a = -np.einsum("cnk,cnl->ckl", pi, pi)
        a[:, np.arange(K), np.arange(K)] += col
        a = np.cumsum(a[:, ::-1], axis=1)[:, ::-1][:, 1:]
        a = np.cumsum(a[:, :, ::-1], axis=2)[:, :, ::-1][:, :, 1:]
        eps = np.minimum(_EPS_ACTIVE, w)[:, None]
        bound = ((dd <= _D_LO + eps) & (g < 0)) | ((dd >= _D_HI - eps) & (g > 0))
        free = ~bound
        a = np.where(free[:, :, None] & free[:, None, :], a, 0.0)
        ridge = 1e-12 * (1.0 + np.abs(a[:, diag, diag]).max(axis=-1))
        a[:, diag, diag] += np.where(free, ridge[:, None], 1.0)
        p = np.linalg.solve(a, np.where(free, g, 0.0)[..., None])[..., 0]
        p = np.where(free, p, g)
        p *= np.minimum(1.0, _MAX_STEP / np.abs(p).max(axis=-1))[:, None]

        pending = np.arange(todo.size)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(dd[pending] + alpha * p[pending], _D_LO, _D_HI)
            step = trial - dd[pending]
            gain = _profile_gain(pi[pending], nk, step)
            ok = gain >= np.maximum(_ARMIJO * (g[pending] * step).sum(axis=-1), 0.0)
            d[todo[pending[ok]]] = trial[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            alpha *= 0.5
        # no ascent step found: the cell keeps its point and counts as failed
        failed[todo[pending]] = True
        todo = np.delete(todo, pending)
        if todo.size == 0:
            break
    else:
        failed[todo] = True
    return _profile_value(lbm, nk, d), failed


def loglik_grid(data, grid_spec, rho_fixed, profile_weights=False):
    """Dense log-likelihood over the (theta0, tau) rectangle of a GridSpec.

    Every grid runs through one chunked loop: each chunk holds at most 2^16
    cells x studies x bands and costs one ``log_band_masses`` call and one
    normal-density sum, so memory stays bounded whatever the grid size or the
    number of studies.  Without ``profile_weights`` every cell uses
    ``rho_fixed`` and matches pointwise log_likelihood calls up to rounding.
    With it, the selection weights are maximized out at each cell (cuts stay
    fixed); this is the grid that exposes the likelihood ridge, because the
    flat direction requires the weight of the last band to shrink along the
    ray.  The profile is one batched projected-Newton solve per chunk over the
    log-weight increments d in [-500, 0]^(K-1) (so weights are non-increasing,
    and a weight may fall to e^-500 times the one above it).  Cells whose
    projected gradient does not reach 1e-10 keep their best ascent point and
    are counted in ``LogLikGrid.failed_cells``.
    """
    x, se, bands = _study_arrays(data, rho_fixed)
    profile = profile_weights and rho_fixed.n_bands >= 2
    eta = rho_fixed.log_weights
    nk = np.bincount(bands, minlength=rho_fixed.n_bands).astype(float)
    d_fixed = np.clip(np.diff(eta), _D_LO, _D_HI)
    theta_axis, tau_axis = grid_spec.theta_axis, grid_spec.tau_axis
    th, tu = (g.ravel() for g in np.meshgrid(theta_axis, tau_axis, indexing="ij"))
    values = np.empty(th.size)
    failed = 0
    chunk = max(1, _CHUNK_ELEMS // (len(x) * rho_fixed.n_bands))
    for lo in range(0, th.size, chunk):
        t, u = th[lo : lo + chunk, None], tu[lo : lo + chunk, None]
        lbm = log_band_masses(t, u, se, rho_fixed)  # (C, N, K)
        base = norm_logpdf(x, t, np.hypot(u, se)).sum(axis=-1)
        if profile:
            prof, bad = _profile_chunk(lbm, nk, d_fixed)
            failed += int(bad.sum())
        else:
            prof = eta @ nk - _logsumexp_last(lbm + eta).sum(axis=-1)
        values[lo : lo + chunk] = prof + base
    values = values.reshape(grid_spec.n_theta, grid_spec.n_tau)
    return LogLikGrid(
        theta_axis, tau_axis, values, rho_fixed, bool(profile_weights), failed
    )


def ridge_slope(grid, level_offset):
    """Log-log slope of the ridge crest in the far-field superlevel set.

    For every theta column with |theta0| >= 5 whose best cell clears
    max - level_offset, takes the maximizing tau and regresses log(tau) on
    log|theta0|.  A half-power ridge gives a slope near 0.5.  Raises
    NoRidgeError when the superlevel set never reaches |theta0| >= 5.
    """
    lhat = float(np.nanmax(grid.values))
    col_best = np.nanmax(grid.values, axis=1)
    col_tau = grid.tau_axis[np.nanargmax(grid.values, axis=1)]
    sel = (
        (np.abs(grid.theta_axis) >= 5.0)
        & (col_best >= lhat - level_offset)
        & (col_tau > 0)
    )
    if sel.sum() < 2:
        raise NoRidgeError(
            "superlevel set does not reach |theta0| >= 5 in at least two columns"
        )
    slope = np.polyfit(np.log(np.abs(grid.theta_axis[sel])), np.log(col_tau[sel]), 1)[0]
    return float(slope)


def diameter_probe(data, loglik_hat, rho_fixed, level, n_values=DEFAULT_PROBE_NS):
    """Probe the witness ray (theta0, tau) = (-n, sqrt(n)) against the LR cut.

    With two or more bands each probe evaluates the witness mixture (equal
    weights on the surviving bands, vanishing last band) whose limit is the
    truncated-exponential likelihood; with a single band it evaluates the
    plain model, which decays and pins the probe out of the region.  A probe
    is accepted when 2 * (loglik_hat - loglik) <= chi2 quantile (2 df).
    """
    if not 0.0 < level < 1.0:
        raise InvalidInputError("level must lie in (0, 1)")
    n_values = tuple(float(n) for n in n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])) or any(
        n <= 0 for n in n_values
    ):
        raise InvalidInputError("n_values must be positive and increasing")
    threshold = float(chi2.ppf(level, df=2))

    if rho_fixed.n_bands >= 2:
        ray_loglik = lambda n: witness_loglik(data, rho_fixed, n)
        limit = limit_loglik(data, rho_fixed)
    else:
        ray_loglik = lambda n: log_likelihood(
            data, ModelParams(theta0=-n, tau=math.sqrt(n), steps=rho_fixed)
        )
        limit = -math.inf

    probes = []
    for n in n_values:
        ll = ray_loglik(n)
        accepted = math.isfinite(ll) and 2.0 * (loglik_hat - ll) <= threshold
        probes.append(
            ProbePoint(n=n, theta0=-n, tau=math.sqrt(n), loglik=ll, accepted=accepted)
        )

    accepted_ns = [p.n for p in probes if p.accepted]
    unbounded = (
        math.isfinite(limit)
        and 2.0 * (loglik_hat - limit) <= threshold
        and bool(probes)
        and probes[-1].accepted
    )
    max_accepted = max(accepted_ns) if accepted_ns else None
    diameter = (
        math.sqrt(max_accepted**2 + max_accepted) if max_accepted is not None else 0.0
    )
    return RegionProbeReport(
        level=level,
        chi2_threshold=threshold,
        probed_ray=tuple(probes),
        max_accepted_n=max_accepted,
        unbounded=unbounded,
        diameter_lower_bound=diameter,
        limit_loglik=limit,
    )


def lr_confidence_region(
    data,
    level,
    rho_fixed,
    grid_spec,
    probe_n_values=DEFAULT_PROBE_NS,
    fit=None,
):
    """Joint LR confidence region for (theta0, tau) on a grid, plus ray probe.

    Grid cells are accepted when 2 * (loglik_hat - loglik) is below the
    chi-square quantile with 2 df.  The chi-square calibration is the
    standard asymptotic choice; no finite-diameter region exists for this
    model, so the region is a demonstrator, not a validity guarantee.
    """
    if not 0.0 < level < 1.0:
        raise InvalidInputError("level must lie in (0, 1)")
    if fit is None:
        fit = fit_mle(data, rho_fixed)
    threshold = float(chi2.ppf(level, df=2))
    grid = loglik_grid(data, grid_spec, rho_fixed)
    accept = 2.0 * (fit.loglik_hat - grid.values) <= threshold
    probe = diameter_probe(data, fit.loglik_hat, rho_fixed, level, probe_n_values)
    return ConfidenceRegion(
        level=level,
        chi2_threshold=threshold,
        loglik_hat=fit.loglik_hat,
        grid=grid,
        accept=accept,
        probe=probe,
    )


def profile_theta_loglik(data, steps, theta0, tau_hi=None):
    """Log-likelihood at theta0 maximized over tau (weights held fixed)."""
    x, se, bands = _study_arrays(data, steps)
    if tau_hi is None:
        tau_hi = 100.0 * max(float(np.std(x)), 1e-3)

    def neg(log_tau):
        return -float(
            loglik_terms(x, se, bands, theta0, math.exp(log_tau), steps).sum()
        )

    res = minimize_scalar(
        neg,
        bounds=(math.log(_TAU_FLOOR), math.log(tau_hi)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return -float(res.fun)


def profile_theta_interval(data, level, steps, fit=None):
    """Equal-LR profile confidence interval for theta0 (tau profiled out).

    Inverts 2 * (loglik_hat - profile(theta0)) <= chi2 quantile (1 df) by
    bracketing and root-finding on each side of the estimate.
    """
    if not 0.0 < level < 1.0:
        raise InvalidInputError("level must lie in (0, 1)")
    if fit is None:
        fit = fit_mle(data, steps)
    q = float(chi2.ppf(level, df=1))
    lhat = fit.loglik_hat
    theta_hat = fit.params_hat.theta0

    def g(theta0):
        return 2.0 * (lhat - profile_theta_loglik(data, steps, theta0)) - q

    x = _study_arrays(data, steps)[0]
    scale = max(float(np.std(x)), 1e-3)

    def solve(direction):
        step = 0.25 * scale
        lo = theta_hat
        for _ in range(60):
            hi = lo + direction * step
            if g(hi) > 0:
                return brentq(g, min(lo, hi), max(lo, hi), xtol=1e-8)
            lo = hi
            step *= 2.0
        return direction * math.inf

    return solve(-1.0), solve(1.0)
