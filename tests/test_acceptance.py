"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Together they certify: density correctness, sampler
validity, the truncated-normal-to-exponential convergence, the half-power
likelihood ridge, the unbounded-confidence-region demonstration, the finite
Bayesian counterpoint, and plain random-effects sanity without selection.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import selectlik as sl
from selectlik.asymptotics import default_error_grid
from selectlik.bayes import DEFAULT_GRID

STEPS = sl.SelectionSteps(cuts=(0.0, 0.025, 0.05, 1.0), weights=(1.0, 0.6, 0.1))


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _simulate(theta0, tau, sigma, n, seed, steps=STEPS):
    params = sl.ModelParams(theta0=theta0, tau=tau, steps=steps)
    return sl.sample_hedges(
        sl.SimulationConfig(params=params, sigmas=(sigma,) * n, seed=seed)
    )


@pytest.fixture(scope="module")
def probe_survey():
    """200 small censored datasets plus the per-dataset ray-probe outcome."""
    params = sl.ModelParams(theta0=1.0, tau=0.2, steps=STEPS)
    outcomes = []
    for seed in range(200):
        data = sl.sample_hedges(
            sl.SimulationConfig(params=params, sigmas=(1.0,) * 10, seed=seed)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if not math.isfinite(sl.witness_loglik(data, STEPS, 1000.0)):
                outcomes.append((seed, data, None))
                continue
            fit = sl.fit_mle(data, STEPS)
            report = sl.diameter_probe(data, fit.loglik_hat, STEPS, 0.95, (1000.0,))
        outcomes.append((seed, data, report))
    return outcomes


def test_criterion_1_density_correctness():
    rng = np.random.default_rng(2024)
    worst_int, worst_mix = 0.0, 0.0
    for _ in range(200):
        K = int(rng.choice([2, 3, 5]))
        cuts = (0.0, *np.sort(rng.uniform(0.001, 0.999, size=K - 1)), 1.0)
        w = np.minimum.accumulate(
            np.concatenate([[1.0], np.sort(rng.uniform(0.05, 1.0, size=K - 1))[::-1]])
        )
        steps = sl.SelectionSteps(cuts=cuts, weights=tuple(w))
        theta0 = float(rng.uniform(-50, 50))
        tau = float(rng.uniform(0, 10))
        sigma = float(rng.uniform(0.05, 5))
        params = sl.ModelParams(theta0=theta0, tau=tau, steps=steps)
        s = math.hypot(tau, sigma)

        # quadrature normalization, split at the density's jump points
        lo, hi = theta0 - 12 * s, theta0 + 12 * s
        jumps = sorted(
            sigma * c for c in steps.z_cutoffs[1:-1] if lo < sigma * c < hi
        )
        edges = [lo, *jumps, hi]
        total = sum(
            quad(
                lambda x: math.exp(sl.hedges_logpdf(x, params, sigma)),
                a,
                b,
                limit=200,
            )[0]
            for a, b in zip(edges, edges[1:])
        )
        worst_int = max(worst_int, abs(total - 1.0))

        # direct form vs the truncated-normal mixture form
        mix = sl.mixture_probabilities(params, sigma)
        for x in rng.uniform(theta0 - 4 * s, theta0 + 4 * s, size=20):
            comps = [
                math.log(pk) + sl.truncated_normal_logpdf(float(x), theta0, s, a, b)
                for pk, (a, b) in zip(mix.probs, mix.component_bounds)
                if pk > 0
            ]
            finite = [c for c in comps if math.isfinite(c)]
            if not finite:
                continue
            gap = abs(
                sl.hedges_logpdf(float(x), params, sigma)
                - float(np.logaddexp.reduce(finite))
            )
            worst_mix = max(worst_mix, gap)
    ok = worst_int < 1e-6 and worst_mix < 1e-10
    _report(
        "criterion 1 density correctness",
        ok,
        f"max |integral-1|={worst_int:.2e}, max mixture gap={worst_mix:.2e}",
    )


def test_criterion_2_sampler_validity():
    params = sl.ModelParams(theta0=0.0, tau=0.5, steps=STEPS)
    pvals = []
    for seed in range(5):
        data = sl.sample_hedges(
            sl.SimulationConfig(params=params, sigmas=(1.0,) * 5000, seed=seed)
        )
        xs = np.array([s.effect for s in data])
        pvals.append(kstest(xs, lambda v: sl.hedges_cdf(v, params, 1.0)).pvalue)
    ok = all(p > 0.01 for p in pvals)
    _report(
        "criterion 2 sampler validity",
        ok,
        "KS p-values " + ", ".join(f"{p:.3f}" for p in pvals),
    )


def test_criterion_3_convergence_to_exponential():
    ns = (10.0, 100.0, 1000.0, 10000.0)
    bands = [(1.959963984540054, math.inf), (1.6448536269514722, 1.959963984540054)]
    ok = True
    details = []
    for a, b in bands:
        grid = default_error_grid(a, b)
        errs = [sl.witness_sup_error(sl.WitnessSpec(n=n, a=a, b=b), grid) for n in ns]
        ok &= all(e2 < e1 for e1, e2 in zip(errs, errs[1:])) and errs[-1] < 1e-2
        details.append(f"[{a:.2f},{b:.2f}) err(1e4)={errs[-1]:.2e}")
    _report("criterion 3 convergence", ok, "; ".join(details))


def test_criterion_4_ridge_reproduction():
    data = _simulate(0.5, 0.2, 0.25, 20, seed=1)
    grid = sl.loglik_grid(
        data, sl.GridSpec(-60, 5, 0, 10, 100, 100), STEPS, profile_weights=True
    )
    slope = sl.ridge_slope(grid, 2.0)
    ok = 0.3 <= slope <= 0.7
    _report("criterion 4 ridge slope", ok, f"slope={slope:.3f}, target [0.3, 0.7]")


def test_criterion_5_infinite_diameter(probe_survey):
    accepted = [
        seed
        for seed, _, report in probe_survey
        if report is not None and report.probed_ray[0].accepted
    ]
    frac = len(accepted) / len(probe_survey)

    # reference dataset: ray value at n=1e4 is within 0.01 of its limit
    ref = _simulate(1.0, 0.2, 1.0, 10, seed=accepted[0]) if accepted else None
    gap = math.inf
    if ref is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gap = abs(
                sl.witness_loglik(ref, STEPS, 10000.0) - sl.limit_loglik(ref, STEPS)
            )
    ok = frac > 0 and gap < 0.01
    _report(
        "criterion 5 infinite diameter",
        ok,
        f"{len(accepted)}/200 regions accept the n=1e3 probe; ref |ray-limit|={gap:.1e}",
    )


def test_criterion_6_bayesian_counterpoint(probe_survey):
    accepted = [
        (seed, data)
        for seed, data, report in probe_survey
        if report is not None and report.probed_ray[0].accepted
    ]
    assert accepted, "criterion 5 must accept at least one dataset"
    ok = True
    worst_margin = math.inf
    for seed, data in accepted:
        post = sl.grid_posterior(data, STEPS)
        lo, hi = post.credible_intervals["theta0"]
        interior = DEFAULT_GRID.theta_min < lo and hi < DEFAULT_GRID.theta_max
        mode = float(post.log_post.max())
        far = sl.log_posterior(
            sl.ModelParams(theta0=-100.0, tau=10.0, steps=STEPS), data
        )
        margin = mode - far
        worst_margin = min(worst_margin, margin)
        ok &= interior and math.isfinite(lo) and math.isfinite(hi) and margin >= 50
    _report(
        "criterion 6 bayesian counterpoint",
        ok,
        f"{len(accepted)} datasets, min mode-vs-(-100,10) margin={worst_margin:.0f}",
    )


def test_criterion_7_uncensored_sanity():
    uncensored = sl.SelectionSteps(cuts=(0.0, 1.0), weights=(1.0,))
    theta0, tau, sigma, n = 0.3, 0.2, 0.5, 200
    errors, covered = [], 0
    for seed in range(50):
        data = _simulate(theta0, tau, sigma, n, seed, steps=uncensored)
        fit = sl.fit_mle(data, uncensored)
        errors.append(abs(fit.params_hat.theta0 - theta0))
        lo, hi = sl.profile_theta_interval(data, 0.95, uncensored, fit=fit)
        covered += lo <= theta0 <= hi
    mae = float(np.mean(errors))
    avg_se = math.sqrt((tau**2 + sigma**2) / n)
    coverage = covered / 50
    ok = mae < 3 * avg_se and coverage >= 0.88
    _report(
        "criterion 7 uncensored sanity",
        ok,
        f"MAE={mae:.4f} vs 3*SE={3 * avg_se:.4f}; coverage={coverage:.0%}",
    )
