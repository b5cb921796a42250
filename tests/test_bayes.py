import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from selectlik import (
    GridSpec,
    GridTooSmallError,
    InvalidInputError,
    ModelParams,
    PriorSpec,
    fit_mle,
    grid_posterior,
    log_posterior,
)

from conftest import make_dataset


class TestLogPosterior:
    def test_prior_contribution_at_origin(self, uncensored):
        # likelihood + log phi(0) + log(2 phi(0)) at (theta0, tau) = (0, 0)
        from selectlik import log_likelihood

        data = make_dataset(0.0, 0.1, 1.0, 5, 0, uncensored)
        params = ModelParams(theta0=0.0, tau=0.0, steps=uncensored)
        want = (
            log_likelihood(data, params)
            + math.log(2.0)
            + 2.0 * norm.logpdf(0.0)
        )
        assert log_posterior(params, data) == pytest.approx(want, abs=1e-12)

    def test_empty_data_rejected(self, uncensored):
        params = ModelParams(theta0=0.0, tau=0.0, steps=uncensored)
        with pytest.raises(InvalidInputError):
            log_posterior(params, [])

    def test_prior_scale_flag(self, uncensored):
        data = make_dataset(0.0, 0.1, 1.0, 5, 0, uncensored)
        params = ModelParams(theta0=0.0, tau=3.0, steps=uncensored)
        wide = log_posterior(params, data, PriorSpec(tau_scale=5.0))
        narrow = log_posterior(params, data, PriorSpec(tau_scale=0.5))
        # tau = 3 sits six narrow scales out but well inside the wide prior
        assert narrow < wide


class TestGridPosterior:
    def test_posterior_normalizes(self, uncensored):
        data = make_dataset(0.3, 0.2, 0.5, 50, 0, uncensored)
        spec = GridSpec(
            theta_min=-2, theta_max=2, tau_min=0, tau_max=2, n_theta=150, n_tau=150
        )
        post = grid_posterior(data, uncensored, spec)
        w_t = np.gradient(post.theta_axis)
        total = float(np.sum(post.theta_marginal * w_t))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_mode_near_mle_on_large_uncensored_data(self, uncensored):
        data = make_dataset(0.5, 0.2, 0.5, 200, 0, uncensored)
        fit = fit_mle(data, uncensored)
        spec = GridSpec(
            theta_min=-1, theta_max=2, tau_min=0, tau_max=1, n_theta=200, n_tau=200
        )
        post = grid_posterior(data, uncensored, spec)
        i, j = np.unravel_index(np.argmax(post.log_post), post.log_post.shape)
        assert post.theta_axis[i] == pytest.approx(fit.params_hat.theta0, abs=0.1)

    def test_grid_refinement_stability(self, step_setup):
        data = make_dataset(1.0, 0.2, 1.0, 10, 8, step_setup)
        base = GridSpec(
            theta_min=-5, theta_max=5, tau_min=0, tau_max=5, n_theta=400, n_tau=400
        )
        wide = GridSpec(
            theta_min=-10, theta_max=10, tau_min=0, tau_max=10, n_theta=800, n_tau=800
        )
        a = grid_posterior(data, step_setup, base).credible_intervals["theta0"]
        b = grid_posterior(data, step_setup, wide).credible_intervals["theta0"]
        assert abs(a[0] - b[0]) < 0.01
        assert abs(a[1] - b[1]) < 0.01

    def test_grid_too_small_raises(self, uncensored):
        # posterior bulk near theta0 = 4, grid stops at 0.5
        data = make_dataset(4.0, 0.1, 0.1, 100, 0, uncensored)
        spec = GridSpec(
            theta_min=-0.5, theta_max=0.5, tau_min=0, tau_max=0.5, n_theta=50, n_tau=50
        )
        with pytest.raises(GridTooSmallError):
            grid_posterior(data, uncensored, spec)

    def test_memory_bounded_by_grid_chunks(self, step_setup):
        # the full (200, 200, 50, 3) band-mass tensor alone would take 48 MB
        data = make_dataset(1.0, 0.2, 1.0, 50, 0, step_setup)
        spec = GridSpec(
            theta_min=-5, theta_max=5, tau_min=0, tau_max=5, n_theta=200, n_tau=200
        )
        tracemalloc.start()
        try:
            grid_posterior(data, step_setup, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_credible_interval_orders(self, step_setup):
        data = make_dataset(1.0, 0.2, 1.0, 10, 8, step_setup)
        post = grid_posterior(data, step_setup)
        lo, hi = post.credible_intervals["theta0"]
        assert lo < hi
        t_lo, t_hi = post.credible_intervals["tau"]
        assert 0.0 <= t_lo < t_hi
