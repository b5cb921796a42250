import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from selectlik import (
    InvalidInputError,
    ModelParams,
    SelectionSteps,
    StudyObservation,
    band_index,
    basic_logpdf,
    hedges_cdf,
    hedges_logpdf,
    log_likelihood,
    log_selection_normalizer,
    marginal_logpdf,
    mixture_probabilities,
    p_value,
    step_weight,
    truncated_normal_logpdf,
)


class TestPValue:
    def test_zero_effect_gives_half(self):
        assert p_value(0.0, 1.0) == 0.5

    def test_significance_boundary(self):
        assert p_value(1.96, 1.0) == pytest.approx(0.025, abs=1e-4)
        assert p_value(1.6449, 1.0) == pytest.approx(0.05, abs=1e-4)

    def test_scale_invariance(self):
        assert p_value(3.0, 2.0) == pytest.approx(p_value(1.5, 1.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            p_value(1.0, 0.0)

    def test_extreme_effects_stay_in_unit_interval(self):
        assert 0.0 < p_value(1e6, 1.0)
        assert p_value(-1e6, 1.0) <= 1.0


class TestStepWeight:
    def test_band_values(self, step_setup):
        assert step_weight(0.01, step_setup) == 1.0
        assert step_weight(0.03, step_setup) == 0.6
        assert step_weight(0.5, step_setup) == 0.1

    def test_right_closed_boundary(self, step_setup):
        # u = 0.025 lands in the first band (alpha_0, alpha_1]
        assert step_weight(0.025, step_setup) == 1.0
        assert step_weight(0.05, step_setup) == 0.6
        assert step_weight(1.0, step_setup) == 0.1

    def test_band_index_vectorized(self, step_setup):
        idx = band_index(np.array([0.01, 0.03, 0.5]), step_setup)
        assert list(idx) == [0, 1, 2]

    def test_rejects_out_of_range(self, step_setup):
        with pytest.raises(InvalidInputError):
            band_index(0.0, step_setup)
        with pytest.raises(InvalidInputError):
            band_index(1.5, step_setup)


class TestSelectionSteps:
    def test_rejects_increasing_weights(self):
        with pytest.raises(InvalidInputError):
            SelectionSteps(cuts=(0.0, 0.5, 1.0), weights=(0.5, 1.0))

    def test_rejects_unsorted_cuts(self):
        with pytest.raises(InvalidInputError):
            SelectionSteps(cuts=(0.0, 0.5, 0.3, 1.0), weights=(1.0, 0.6, 0.2))

    def test_rejects_first_weight_not_one(self):
        with pytest.raises(InvalidInputError):
            SelectionSteps(cuts=(0.0, 0.5, 1.0), weights=(0.9, 0.5))

    def test_uniform_is_selection_free(self):
        steps = SelectionSteps.uniform()
        assert steps.n_bands == 1
        assert steps.weights == (1.0,)


class TestMarginalLogpdf:
    def test_mode_at_zero_heterogeneity(self):
        assert marginal_logpdf(0.3, 0.3, 0.0, 1.0) == pytest.approx(
            math.log(1.0 / math.sqrt(2 * math.pi))
        )

    def test_matches_scalar_normal_oracle(self):
        assert marginal_logpdf(1.0, 0.0, 1.0, 1.0) == pytest.approx(
            norm.logpdf(1.0, 0.0, math.sqrt(2.0)), abs=1e-12
        )

    def test_tau_zero_reduces_to_plain_normal(self):
        xs = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(
            marginal_logpdf(xs, 0.7, 0.0, 1.3), norm.logpdf(xs, 0.7, 1.3)
        )


class TestBasicLogpdf:
    def test_value_against_cdf_oracle(self):
        got = basic_logpdf(2.0, 0.0, 0.0, 1.0, 0.025)
        assert got == pytest.approx(math.log(norm.pdf(2.0) / 0.025), abs=1e-3)
        assert math.exp(got) == pytest.approx(2.1596, abs=2e-3)

    def test_censored_region_is_log_zero(self):
        assert basic_logpdf(1.9, 0.0, 0.0, 1.0, 0.025) == -math.inf
        assert basic_logpdf(-3.0, 0.0, 0.0, 1.0, 0.025) == -math.inf

    def test_integrates_to_one(self):
        cut = ndtri(0.975)
        val, _ = quad(lambda x: math.exp(basic_logpdf(x, 0.2, 0.3, 1.0, 0.025)), cut, 20)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_deep_censoring_stays_finite(self):
        # mean far below the cutoff: the normalizer must not underflow
        val = basic_logpdf(2.0, -30.0, 0.0, 1.0, 0.025)
        assert math.isfinite(val)


class TestMixtureProbabilities:
    def test_uncensored_equals_band_masses(self, uncensored):
        params = ModelParams(theta0=0.4, tau=0.3, steps=uncensored)
        mix = mixture_probabilities(params, 1.0)
        np.testing.assert_allclose(mix.probs, [1.0])

    def test_three_band_oracle(self, step_setup):
        params = ModelParams(theta0=0.0, tau=0.0, steps=step_setup)
        mix = mixture_probabilities(params, 1.0)
        raw = np.array([1.0 * 0.025, 0.6 * 0.025, 0.1 * 0.95])
        np.testing.assert_allclose(mix.probs, raw / raw.sum(), rtol=1e-10)

    def test_selection_free_bands_sum_to_plain_masses(self):
        steps = SelectionSteps(cuts=(0.0, 0.1, 0.4, 1.0), weights=(1.0, 1.0, 1.0))
        params = ModelParams(theta0=0.3, tau=0.5, steps=steps)
        mix = mixture_probabilities(params, 0.8)
        s = math.hypot(0.5, 0.8)
        masses = [
            ndtr((hi - 0.3) / s) - ndtr((lo - 0.3) / s)
            for lo, hi in mix.component_bounds
        ]
        np.testing.assert_allclose(mix.probs, masses, rtol=1e-9)
        assert mix.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_parameters_still_normalized(self, step_setup):
        params = ModelParams(theta0=-1e4, tau=1.0, steps=step_setup)
        mix = mixture_probabilities(params, 1.0)
        assert mix.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(mix.probs >= 0)


class TestTruncatedNormalLogpdf:
    def test_no_truncation_is_plain_normal(self):
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(
            truncated_normal_logpdf(xs, 0.5, 1.2, -math.inf, math.inf),
            norm.logpdf(xs, 0.5, 1.2),
        )

    def test_outside_support_is_log_zero(self):
        assert truncated_normal_logpdf(1.0, 0.0, 1.0, 1.96, math.inf) == -math.inf

    def test_matches_basic_model(self):
        cut = ndtri(0.975)
        got = truncated_normal_logpdf(2.0, 0.0, 1.0, cut, math.inf)
        assert got == pytest.approx(basic_logpdf(2.0, 0.0, 0.0, 1.0, 0.025), abs=1e-12)

    def test_far_window_accuracy(self):
        # window ~1e4 sds above the mean: compare against mpmath-free oracle
        # log f = logpdf(x) - log(Phi(-a)) with both terms ~ -x^2/2
        a = 1e4
        got = truncated_normal_logpdf(a + 0.5, 0.0, 1.0, a, math.inf)
        # oracle via asymptotic-safe scipy log_ndtr
        from scipy.special import log_ndtr

        want = norm.logpdf(a + 0.5) - log_ndtr(-a)
        assert got == pytest.approx(want, rel=1e-12)


class TestHedgesLogpdf:
    def test_uncensored_reduces_to_marginal(self, uncensored):
        params = ModelParams(theta0=0.2, tau=0.4, steps=uncensored)
        xs = np.linspace(-4, 4, 21)
        np.testing.assert_allclose(
            hedges_logpdf(xs, params, 1.0), marginal_logpdf(xs, 0.2, 0.4, 1.0)
        )

    def test_matches_mixture_form(self, step_setup):
        params = ModelParams(theta0=0.3, tau=0.4, steps=step_setup)
        mix = mixture_probabilities(params, 0.7)
        s = math.hypot(0.4, 0.7)
        rng = np.random.default_rng(11)
        for x in rng.uniform(-3, 3, size=100):
            comps = [
                math.log(pk) + truncated_normal_logpdf(float(x), 0.3, s, lo, hi)
                for pk, (lo, hi) in zip(mix.probs, mix.component_bounds)
            ]
            finite = [c for c in comps if math.isfinite(c)]
            want = float(np.logaddexp.reduce(finite))
            assert hedges_logpdf(float(x), params, 0.7) == pytest.approx(want, abs=1e-10)

    def test_integrates_to_one(self, step_setup):
        params = ModelParams(theta0=0.3, tau=0.4, steps=step_setup)
        s = math.hypot(0.4, 0.7)
        # integrate piecewise between the density's jump points
        cut_hi, cut_lo = 0.7 * ndtri(0.975), 0.7 * ndtri(0.95)
        edges = [0.3 - 12 * s, cut_lo, cut_hi, 0.3 + 12 * s]
        val = sum(
            quad(lambda x: math.exp(hedges_logpdf(x, params, 0.7)), a, b, limit=200)[0]
            for a, b in zip(edges, edges[1:])
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalizer_is_acceptance_probability(self, step_setup):
        params = ModelParams(theta0=0.0, tau=0.0, steps=step_setup)
        # c = sum rho_k * mass_k with known band masses at theta0=0, sigma=1
        want = 1.0 * 0.025 + 0.6 * 0.025 + 0.1 * 0.95
        got = math.exp(log_selection_normalizer(params, 1.0))
        assert got == pytest.approx(want, rel=1e-6)


class TestHedgesCdf:
    @pytest.mark.parametrize("x", [1.7, 5.0])
    def test_ridge_point_matches_quadrature(self, x):
        # far out on the ridge every band sits in the marginal's upper tail
        theta0, tau = -1000.0, math.sqrt(1000.0)
        steps = SelectionSteps(cuts=(0.0, 0.025, 0.05, 1.0), weights=(1.0, 0.6, 1e-300))
        params = ModelParams(theta0=theta0, tau=tau, steps=steps)
        s = math.hypot(tau, 1.0)
        cuts = [c for c in (ndtri(0.95), ndtri(0.975)) if c < x]
        edges = [theta0 - 40 * s, *cuts, x]
        want = sum(
            quad(lambda t: math.exp(hedges_logpdf(t, params, 1.0)), a, b, limit=200)[0]
            for a, b in zip(edges, edges[1:])
        )
        assert hedges_cdf(x, params, 1.0) == pytest.approx(want, rel=1e-8)


class TestLogLikelihood:
    def test_single_uncensored_study_is_marginal(self, uncensored):
        params = ModelParams(theta0=0.1, tau=0.2, steps=uncensored)
        data = [StudyObservation(effect=0.5, se=1.0)]
        assert log_likelihood(data, params) == pytest.approx(
            marginal_logpdf(0.5, 0.1, 0.2, 1.0)
        )

    def test_two_identical_studies_double(self, step_setup):
        params = ModelParams(theta0=0.1, tau=0.2, steps=step_setup)
        one = [StudyObservation(effect=2.5, se=1.0)]
        two = one * 2
        assert log_likelihood(two, params) == pytest.approx(
            2.0 * log_likelihood(one, params), abs=1e-12
        )

    def test_matches_per_study_sum(self, step_setup):
        params = ModelParams(theta0=0.3, tau=0.1, steps=step_setup)
        data = [
            StudyObservation(effect=e, se=s)
            for e, s in [(2.1, 1.0), (0.4, 0.5), (1.8, 0.8), (-0.2, 0.3), (3.0, 1.2)]
        ]
        want = sum(hedges_logpdf(d.effect, params, d.se) for d in data)
        assert log_likelihood(data, params) == pytest.approx(want, abs=1e-12)

    def test_empty_data_rejected(self, step_setup):
        with pytest.raises(InvalidInputError):
            log_likelihood([], ModelParams(theta0=0.0, tau=0.0, steps=step_setup))
