import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import chi2, norm

from selectlik import (
    GridSpec,
    InvalidInputError,
    ModelParams,
    NoRidgeError,
    SelectionSteps,
    SimulationConfig,
    StudyObservation,
    diameter_probe,
    fit_mle,
    log_likelihood,
    loglik_grid,
    lr_confidence_region,
    profile_theta_interval,
    profile_theta_loglik,
    ridge_slope,
    sample_hedges,
)
from selectlik.model import band_index, log_band_masses, p_value

from conftest import make_dataset


def _lbfgsb_profile(data, steps, theta0, tau):
    """Per-cell weight profile by scipy L-BFGS-B: the reference for the grid.

    Maximizes the log-likelihood over the log-weight increments d in
    [-500, 0]^(K-1) from two starts (the fixed weights and no selection),
    with the objective and its gradient written out here from the band masses.
    """
    x = np.array([s.effect for s in data])
    se = np.array([s.se for s in data])
    nk = np.bincount(band_index(p_value(x, se), steps), minlength=steps.n_bands)
    lbm = log_band_masses(theta0, tau, se, steps)
    base = norm.logpdf(x, theta0, np.hypot(tau, se)).sum()

    def neg(d):
        eta = np.concatenate([[0.0], np.cumsum(d)])
        lse = logsumexp(lbm + eta, axis=1)
        pi = np.exp(lbm + eta - lse[:, None])
        grad_eta = nk - pi.sum(axis=0)
        return -(nk @ eta - lse.sum() + base), -np.cumsum(grad_eta[::-1])[::-1][1:]

    starts = (
        np.clip(np.diff(steps.log_weights), -500.0, 0.0),
        np.zeros(steps.n_bands - 1),
    )
    bounds = [(-500.0, 0.0)] * (steps.n_bands - 1)
    return max(
        -minimize(neg, d0, jac=True, method="L-BFGS-B", bounds=bounds).fun
        for d0 in starts
    )


class TestFitMle:
    def test_two_point_degenerate_dataset(self, uncensored):
        data = [StudyObservation(effect=0.5, se=1.0)] * 2
        fit = fit_mle(data, uncensored)
        assert fit.params_hat.theta0 == pytest.approx(0.5, abs=1e-5)
        assert fit.params_hat.tau == pytest.approx(0.0, abs=1e-4)

    def test_uncensored_recovers_truth(self, uncensored):
        errs = []
        for seed in range(5):
            data = make_dataset(0.5, 0.2, 0.5, 200, seed, uncensored)
            fit = fit_mle(data, uncensored)
            errs.append(abs(fit.params_hat.theta0 - 0.5))
        se_hat = math.sqrt((0.2**2 + 0.5**2) / 200)
        assert np.mean(errs) < 3 * se_hat

    def test_loglik_hat_dominates_truth(self, step_setup):
        params = ModelParams(theta0=0.5, tau=0.2, steps=step_setup)
        for seed in range(3):
            data = make_dataset(0.5, 0.2, 0.5, 40, seed, step_setup)
            fit = fit_mle(data, step_setup)
            assert fit.loglik_hat >= log_likelihood(data, params) - 1e-6

    def test_free_weights_improves_or_matches(self, censored_dataset, step_setup):
        fixed = fit_mle(censored_dataset, step_setup)
        free = fit_mle(censored_dataset, step_setup, free_weights=True)
        assert free.loglik_hat >= fixed.loglik_hat - 1e-6
        w = free.params_hat.steps.weights
        assert w[0] == 1.0
        assert all(b <= a for a, b in zip(w, w[1:]))

    def test_free_weights_with_empty_last_band(self, step_setup):
        # every study has p < 0.05: the likelihood rises as rho_3 falls, and
        # the fit used to drive rho_3 to an exact 0 and exit as bad input
        effects = [
            0.526657, 0.478662, 0.563466, 0.439058, 0.759585,
            0.629675, 0.751431, 1.308629, 0.498075, 1.028378,
            0.74358, 0.565324, 1.074896, 0.924, 0.425571,
            0.75196, 0.94621, 1.103063, 0.975899, 0.449907,
        ]
        data = [StudyObservation(effect=e, se=0.25) for e in effects]
        fixed = fit_mle(data, step_setup)
        free = fit_mle(data, step_setup, free_weights=True)
        assert free.converged
        assert free.loglik_hat >= fixed.loglik_hat - 1e-6
        assert 0.0 < free.params_hat.steps.weights[-1] < 1e-10

    def test_requires_two_studies(self, uncensored):
        with pytest.raises(InvalidInputError):
            fit_mle([StudyObservation(effect=0.5, se=1.0)], uncensored)


class TestGridSpec:
    @pytest.mark.parametrize(
        "bounds",
        [
            (-math.inf, 5, 0, 10),
            (-60, math.inf, 0, 10),
            (-60, 5, 0, math.inf),
            (-60, 5, math.nan, 10),
        ],
    )
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(InvalidInputError, match="finite"):
            GridSpec(*bounds)


class TestLoglikGrid:
    # 40 x 40 cells at N = 20, K = 3 span two chunks of 1092 cells
    @pytest.mark.parametrize("n_theta, n_tau", [(7, 5), (40, 40)])
    def test_matches_pointwise_loglik(
        self, censored_dataset, step_setup, n_theta, n_tau
    ):
        grid = loglik_grid(
            censored_dataset, GridSpec(-1, 2, 0, 1, n_theta, n_tau), step_setup
        )
        for i in (0, n_theta // 2, n_theta - 1):
            for j in (0, n_tau // 2, n_tau - 1):
                params = ModelParams(
                    theta0=grid.theta_axis[i], tau=grid.tau_axis[j], steps=step_setup
                )
                assert grid.values[i, j] == pytest.approx(
                    log_likelihood(censored_dataset, params), abs=1e-10
                )

    def test_grid_max_below_mle(self, censored_dataset, step_setup):
        fit = fit_mle(censored_dataset, step_setup)
        grid = loglik_grid(censored_dataset, GridSpec(-1, 2, 0, 1, 40, 40), step_setup)
        assert grid.values.max() <= fit.loglik_hat + 1e-6

    def test_profile_dominates_fixed(self, censored_dataset, step_setup):
        spec = GridSpec(-5, 2, 0, 2, 6, 5)
        fixed = loglik_grid(censored_dataset, spec, step_setup)
        prof = loglik_grid(censored_dataset, spec, step_setup, profile_weights=True)
        assert np.all(prof.values >= fixed.values - 1e-6)

    def test_batched_profile_dominates_lbfgsb_oracle(self, censored_dataset, step_setup):
        grid = loglik_grid(
            censored_dataset,
            GridSpec(-10, 2, 0, 3, 5, 4),
            step_setup,
            profile_weights=True,
        )
        assert grid.failed_cells == 0
        for i, theta0 in enumerate(grid.theta_axis):
            for j, tau in enumerate(grid.tau_axis):
                oracle = _lbfgsb_profile(censored_dataset, step_setup, theta0, tau)
                assert grid.values[i, j] >= oracle - 1e-8

    def test_ridge_grid_converges_everywhere(self, censored_dataset, step_setup):
        # the criterion-4 corpus and grid; the oracle runs on every 23rd cell
        spec = GridSpec(-60, 5, 0, 10, 100, 100)
        prof = loglik_grid(censored_dataset, spec, step_setup, profile_weights=True)
        fixed = loglik_grid(censored_dataset, spec, step_setup)
        assert prof.failed_cells == 0
        assert np.all(prof.values >= fixed.values - 1e-8)
        for cell in range(0, prof.values.size, 23):
            i, j = np.unravel_index(cell, prof.values.shape)
            oracle = _lbfgsb_profile(
                censored_dataset, step_setup, prof.theta_axis[i], prof.tau_axis[j]
            )
            assert prof.values[i, j] >= oracle - 1e-8

    def test_far_left_cell_reaches_weight_optimum(self, step_setup):
        # a corpus on which a warm-started per-cell L-BFGS-B stopped 110.9
        # log-units short at this cell; the optimum puts the weights at
        # (1, e^-164.06385439, e^-664.06385439), the last on the box edge
        effects = [
            0.460667, 1.003125, 0.704309, 0.66979, 0.690108,
            0.471131, 0.352109, -0.117544, 0.578436, -0.127815,
            0.531551, 0.651202, 0.780481, 0.229791, 0.693936,
            0.606025, 0.486017, 1.049608, 0.820101, 0.998755,
        ]
        data = [StudyObservation(effect=e, se=0.25) for e in effects]
        theta_star = np.linspace(-60, 5, 100)[40]
        tau_star = np.linspace(0, 10, 100)[9]
        grid = loglik_grid(
            data, GridSpec(theta_star, 5, 0, tau_star, 2, 10), step_setup,
            profile_weights=True,
        )
        optimum = SelectionSteps(
            cuts=step_setup.cuts,
            weights=(1.0, math.exp(-164.06385439), math.exp(-664.06385439)),
        )
        bound = log_likelihood(data, ModelParams(theta_star, tau_star, optimum))
        assert bound == pytest.approx(-3151.8868, abs=1e-4)
        assert grid.values[0, -1] >= bound - 1e-8
        assert grid.failed_cells == 0


class TestRidgeSlope:
    def test_censored_profile_ridge_near_half(self, censored_dataset, step_setup):
        grid = loglik_grid(
            censored_dataset,
            GridSpec(-60, 5, 0, 10, 60, 60),
            step_setup,
            profile_weights=True,
        )
        slope = ridge_slope(grid, 2.0)
        assert 0.3 <= slope <= 0.7

    def test_uncensored_grid_has_no_ridge(self, uncensored):
        data = make_dataset(0.5, 0.2, 0.5, 40, 0, uncensored)
        fit = fit_mle(data, uncensored)
        grid = loglik_grid(data, GridSpec(-60, 5, 0, 10, 40, 40), uncensored)
        with pytest.raises(NoRidgeError):
            ridge_slope(grid, 2.0)


class TestDiameterProbe:
    def test_threshold_is_chi2_quantile(self, censored_dataset, step_setup):
        fit = fit_mle(censored_dataset, step_setup)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = diameter_probe(censored_dataset, fit.loglik_hat, step_setup, 0.95)
        assert rep.chi2_threshold == pytest.approx(5.9915, abs=1e-3)

    def test_uncensored_positive_data_rejects_ray(self, uncensored):
        data = make_dataset(2.0, 0.1, 0.5, 30, 0, uncensored)
        assert all(s.effect > 0 for s in data)
        fit = fit_mle(data, uncensored)
        rep = diameter_probe(data, fit.loglik_hat, uncensored, 0.95, (100.0, 1000.0))
        assert not any(p.accepted for p in rep.probed_ray)
        assert rep.diameter_lower_bound == 0.0

    def test_accepted_probe_on_significant_only_data(self, step_setup):
        # all studies significant: the witness ray stays in the region
        data = make_dataset(1.0, 0.2, 1.0, 10, 8, step_setup)
        fit = fit_mle(data, step_setup)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = diameter_probe(
                data, fit.loglik_hat, step_setup, 0.95, (100.0, 1000.0)
            )
        assert rep.probed_ray[-1].accepted
        assert rep.unbounded
        assert rep.diameter_lower_bound == pytest.approx(
            math.sqrt(1000.0**2 + 1000.0)
        )

    def test_monotone_convergence_to_limit(self, step_setup):
        data = make_dataset(1.0, 0.2, 1.0, 10, 8, step_setup)
        fit = fit_mle(data, step_setup)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = diameter_probe(
                data, fit.loglik_hat, step_setup, 0.95, (100.0, 1000.0, 10000.0)
            )
        gaps = [abs(p.loglik - rep.limit_loglik) for p in rep.probed_ray]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01

    def test_rejects_bad_level(self, censored_dataset, step_setup):
        with pytest.raises(InvalidInputError):
            diameter_probe(censored_dataset, 0.0, step_setup, 1.5)


class TestLrConfidenceRegion:
    def test_mle_cell_accepted(self, censored_dataset, step_setup):
        fit = fit_mle(censored_dataset, step_setup)
        spec = GridSpec(
            theta_min=fit.params_hat.theta0 - 1,
            theta_max=fit.params_hat.theta0 + 1,
            tau_min=0.0,
            tau_max=max(2 * fit.params_hat.tau, 0.5),
            n_theta=21,
            n_tau=21,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            region = lr_confidence_region(
                censored_dataset, 0.95, step_setup, spec, (10.0,), fit=fit
            )
        assert region.accept.any()
        i, j = np.unravel_index(np.argmax(region.grid.values), region.accept.shape)
        assert region.accept[i, j]


class TestProfileTheta:
    def test_profile_at_mle_matches_loglik_hat(self, censored_dataset, step_setup):
        fit = fit_mle(censored_dataset, step_setup)
        prof = profile_theta_loglik(censored_dataset, step_setup, fit.params_hat.theta0)
        assert prof == pytest.approx(fit.loglik_hat, abs=1e-5)

    def test_interval_contains_mle(self, censored_dataset, step_setup):
        fit = fit_mle(censored_dataset, step_setup)
        lo, hi = profile_theta_interval(censored_dataset, 0.95, step_setup, fit=fit)
        assert lo < fit.params_hat.theta0 < hi

    def test_uncensored_coverage_smoke(self, uncensored):
        hits = 0
        for seed in range(10):
            data = make_dataset(0.3, 0.2, 0.5, 100, seed, uncensored)
            lo, hi = profile_theta_interval(data, 0.95, uncensored)
            hits += lo <= 0.3 <= hi
        assert hits >= 8
