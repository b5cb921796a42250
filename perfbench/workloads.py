"""The four benchmark workloads: input generation, one op, and its output check.

Inputs are drawn here with numpy from the published-effect model (normal
random effect, normal estimate, accept with the step weight of the one-sided
p-value), not with ``selectlik.sampling``, so a change to the package's
sampler leaves the inputs of ``ridge``, ``posterior`` and ``survey`` as they
are.  The program is reached only through ``selectlik.cli.main`` and public
``selectlik`` names, each looked up at call time so that the tracing
wrappers installed by ``tracing.install`` see every call.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

CUTS = (0.0, 0.025, 0.05, 1.0)
ALPHA = ",".join(repr(c) for c in CUTS)
RHO = (1.0, 0.6, 0.1)  # the weights of ridge, posterior and survey
FLAGS = ("--rho", ",".join(repr(w) for w in RHO), "--alpha", ALPHA)


class OpFailed(Exception):
    """An op exited non-zero or raised."""


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def draw_effects(rng, theta0, tau, sigmas, weights, cuts=CUTS):
    """Published effects, one per entry of ``sigmas``, by batched rejection."""
    sigmas = np.asarray(sigmas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    cuts = np.asarray(cuts, dtype=float)
    out = np.empty(len(sigmas))
    todo = np.arange(len(sigmas))
    while todo.size:
        s = sigmas[todo]
        x = rng.normal(rng.normal(theta0, tau, todo.size), s)
        p = np.clip(ndtr(-x / s), np.finfo(float).tiny, 1.0)
        band = np.searchsorted(cuts, p, side="left") - 1
        keep = rng.uniform(size=todo.size) < weights[band]
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def acceptance_probabilities(theta0, tau, sigmas, weights, cuts=CUTS):
    """Per-study publication probability c_i = sum_k rho_k * P(band k)."""
    sigmas = np.asarray(sigmas, dtype=float)[:, None]
    z = norm.isf(np.asarray(cuts))  # +inf .. -inf, decreasing
    s = np.hypot(tau, sigmas)
    upper = norm.cdf((sigmas * z[:-1] - theta0) / s)
    lower = norm.cdf((sigmas * z[1:] - theta0) / s)
    return ((upper - lower) * np.asarray(weights)).sum(axis=1)


def write_studies(path, effects, sigmas):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("effect,se\n")
        fh.writelines(f"{float(x)!r},{float(s)!r}\n" for x, s in zip(effects, sigmas))


def read_rows(path):
    """Data rows of a long-format CSV as lists of floats (header dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def sample_rows(path, n, rng):
    """Row count of a long-format CSV and n of its rows, drawn by rng.

    Streams the file, so checking a large grid does not raise peak RSS.
    """
    with open(path, encoding="utf-8") as fh:
        count = sum(1 for _ in fh) - 1
    wanted = set(rng.choice(count, min(n, count), replace=False).tolist()) if count > 0 else set()
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = [[float(v) for v in line.split(",")] for r, line in enumerate(fh) if r in wanted]
    return count, rows


def close(a, b, tol):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


class Workload:
    """One workload's inputs in ``workdir`` plus its op and output check.

    ``op(i)`` runs op number i and returns what ``check`` needs; it raises
    OpFailed on a non-zero exit, and ``check`` raises CheckFailed on a wrong
    output.  An op adds to ``units`` what it completed (grid cells, corpora
    or studies), also when a later step fails; ``outputs(i)`` lists the
    files it wrote.
    """

    def __init__(self, sl, workdir, seed, part, smoke):
        self.sl = sl
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, part])
        self.part = part
        self.smoke = smoke
        self.stdout_bytes = 0  # both counters are reset by the caller before each op
        self.units = 0
        self.steps = sl.SelectionSteps(cuts=CUTS, weights=RHO)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def cli(self, *argv):
        """Run one CLI command in process; its stdout is captured and counted."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sl.cli.main([str(a) for a in argv])
        text = buf.getvalue()
        self.stdout_bytes += len(text.encode())
        if code != 0:
            raise OpFailed(f"selectlik {argv[0]} exited {code}")
        return text

    def studies(self, effects, sigmas):
        return [self.sl.StudyObservation(effect=float(x), se=float(s))
                for x, s in zip(effects, sigmas)]

    def outputs(self, i):
        return []


class Ridge(Workload):
    """fit --free-weights, profiled contour and probe on criterion-4 corpora.

    A session costs about twice as much when some study falls in the last
    band (with none there, the profile runs straight to the box edge), and
    about 28% of criterion-4 corpora have none there.  So that a handful of
    sessions per run does not flip the median between the two costs, the
    stratum is fixed by op: every fourth op (by op index plus part) draws a
    corpus with an empty last band, the others one without; the warm-up
    draws the common kind.
    """

    N_CORPORA = 8

    def __init__(self, *args):
        super().__init__(*args)
        self.resolution = 12 if self.smoke else 100
        self.sigmas = np.full(20, 0.25)
        self.corpora = [self.draw(i) for i in range(-1, self.N_CORPORA - 1)]

    def corpus_index(self, i):
        return (i + 1) % self.N_CORPORA

    def draw(self, i):
        empty_last = i >= 0 and (i + self.part) % 4 == 3
        while True:
            x = draw_effects(self.rng, 0.5, 0.2, self.sigmas, RHO)
            if (x / self.sigmas >= norm.isf(CUTS[2])).all() == empty_last:
                break
        write_studies(self.path(f"ridge{self.corpus_index(i)}.csv"), x, self.sigmas)
        return self.studies(x, self.sigmas)

    def op(self, i):
        c = self.corpus_index(i)
        studies = self.path(f"ridge{c}.csv")
        commands = (
            ("fit", studies, *FLAGS, "--free-weights", "--out", self.path("fit.json")),
            ("contour", studies, *FLAGS, "--theta-range=-60,5", "--tau-range", "0,10",
             "--resolution", self.resolution, "--profile-weights", "--out", self.path("grid.csv")),
            ("probe", studies, *FLAGS, "--out", self.path("probe.json")),
        )
        # the commands are independent, so a session runs all three even if one fails
        failures = []
        for argv in commands:
            try:
                self.cli(*argv)
            except OpFailed as exc:
                failures.append(str(exc))
            else:
                self.units += self.resolution**2 if argv[0] == "contour" else 0
        if failures:
            raise OpFailed(f"corpus {c}: " + "; ".join(failures))
        return c

    def outputs(self, i):
        return [self.path(n) for n in ("fit.json", "grid.csv", "probe.json")]

    def check(self, c):
        # the reference is computed cell by cell: a grid call here would raise
        # this process's peak RSS above what the session itself used
        sl, data = self.sl, self.corpora[c]
        for name in ("fit.json", "probe.json"):
            with open(self.path(name), encoding="utf-8") as fh:
                json.load(fh)
        rows = read_rows(self.path("grid.csv"))
        if len(rows) != self.resolution**2:
            raise CheckFailed(f"contour wrote {len(rows)} cells")
        for theta, tau, value in rows:
            fixed = sl.log_likelihood(data, sl.ModelParams(theta0=theta, tau=tau, steps=self.steps))
            if not (math.isfinite(value) and value >= fixed - 1e-8):
                raise CheckFailed(f"profiled cell ({theta}, {tau}) = {value} < fixed {fixed}")


class Posterior(Workload):
    """bayes --out-grid at 400^2 plus a fixed-weight contour, N=50, mixed se."""

    N_SAMPLED = 20

    def __init__(self, *args):
        super().__init__(*args)
        n = 10 if self.smoke else 50
        self.bayes_res = 40 if self.smoke else 400
        self.contour_res = 20 if self.smoke else 100
        self.sigmas = self.rng.uniform(0.1, 1.0, n)
        x = draw_effects(self.rng, 0.5, 0.2, self.sigmas, RHO)
        write_studies(self.path("studies.csv"), x, self.sigmas)
        self.data = self.studies(x, self.sigmas)

    def op(self, i):
        studies = self.path("studies.csv")
        self.cli("bayes", studies, *FLAGS, "--resolution", self.bayes_res,
                 "--out", self.path("bayes.json"), "--out-grid", self.path("post.csv"))
        self.units += self.bayes_res**2
        self.cli("contour", studies, *FLAGS, "--resolution", self.contour_res,
                 "--out", self.path("grid.csv"))
        self.units += self.contour_res**2
        return i

    def outputs(self, i):
        return [self.path(n) for n in ("bayes.json", "post.csv", "grid.csv")]

    def check(self, i):
        sl, steps = self.sl, self.steps
        rng = np.random.default_rng(i + 1)  # the warm-up op is -1
        n_post, post = sample_rows(self.path("post.csv"), self.N_SAMPLED, rng)
        n_grid, grid = sample_rows(self.path("grid.csv"), self.N_SAMPLED, rng)
        if n_post != self.bayes_res**2 or n_grid != self.contour_res**2:
            raise CheckFailed(f"grids hold {n_post} and {n_grid} cells")
        for theta, tau, value in post:
            ref = sl.log_posterior(sl.ModelParams(theta0=theta, tau=tau, steps=steps), self.data)
            if not close(value, ref, 1e-9):
                raise CheckFailed(f"log_post at ({theta}, {tau}) = {value}, expected {ref}")
        for theta, tau, value in grid:
            ref = sl.log_likelihood(self.data, sl.ModelParams(theta0=theta, tau=tau, steps=steps))
            if not close(value, ref, 1e-9):
                raise CheckFailed(f"loglik at ({theta}, {tau}) = {value}, expected {ref}")
        with open(self.path("bayes.json"), encoding="utf-8") as fh:
            out = json.load(fh)
        for key, lo_hi in (("theta0_interval", (-5.0, 5.0)), ("tau_interval", (0.0, 5.0))):
            lo, hi = out[key]
            if not (lo_hi[0] <= lo <= hi <= lo_hi[1]):
                raise CheckFailed(f"{key} {out[key]} not finite inside {lo_hi}")


class Survey(Workload):
    """fit, ray probe, profile interval and coarse posterior per corpus (library)."""

    GRID = (-5.0, 5.0, 0.0, 5.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.n_corpora = 4 if self.smoke else 64
        self.grid_n = 20 if self.smoke else 50
        sigmas = np.ones(10)
        self.corpora = [self.studies(draw_effects(self.rng, 1.0, 0.2, sigmas, RHO), sigmas)
                        for _ in range(self.n_corpora)]
        self.spec = self.sl.GridSpec(*self.GRID, n_theta=self.grid_n, n_tau=self.grid_n)

    def op(self, i):
        sl, data, steps = self.sl, self.corpora[i % self.n_corpora], self.steps
        with warnings.catch_warnings():
            # corpora with a study in the last band warn that the ray limit is -inf
            warnings.simplefilter("ignore")
            fit = sl.fit_mle(data, steps)
            probe = sl.diameter_probe(data, fit.loglik_hat, steps, 0.95)
            interval = sl.profile_theta_interval(data, 0.95, steps, fit=fit)
            post = sl.grid_posterior(data, steps, self.spec)
        self.units += 1
        return data, fit, probe, interval, post

    def check(self, result):
        data, fit, probe, (lo, hi), post = result
        ref = self.sl.log_likelihood(data, fit.params_hat)
        if not close(ref, fit.loglik_hat, 1e-9):
            raise CheckFailed(f"loglik_hat {fit.loglik_hat} != log_likelihood {ref}")
        if not lo <= fit.params_hat.theta0 <= hi:
            raise CheckFailed(f"profile interval ({lo}, {hi}) misses theta0_hat")
        if not probe.diameter_lower_bound >= 0.0:
            raise CheckFailed(f"diameter bound {probe.diameter_lower_bound}")
        t0, t1, u0, u1 = self.GRID
        for (a, b), (g0, g1) in ((post.credible_intervals["theta0"], (t0, t1)),
                                 (post.credible_intervals["tau"], (u0, u1))):
            if not g0 <= a <= b <= g1:
                raise CheckFailed(f"credible interval ({a}, {b}) not inside ({g0}, {g1})")


class Simulate(Workload):
    """CLI simulate: one ordinary and one low-acceptance corpus per op."""

    ORDINARY = dict(theta0=0.0, tau=0.5, rho=(1.0, 0.6, 0.1))
    LOW = dict(theta0=-1.0, tau=0.5, rho=(1.0, 0.5, 0.02))

    def __init__(self, *args):
        super().__init__(*args)
        self.seed = int(self.rng.integers(2**31))
        self.n_ordinary = 50 if self.smoke else 1000
        # evenly spaced, not drawn: the expected proposal count (sum of 1/c_i)
        # then does not vary with the seed, only the sampler's draws do
        self.low_sigmas = np.linspace(0.5, 2.0, 20 if self.smoke else 100)
        self.runs = (
            ("ordinary", self.ORDINARY, np.ones(self.n_ordinary),
             ("--n-studies", self.n_ordinary, "--sigma-value", "1.0")),
            ("low", self.LOW, self.low_sigmas,
             ("--sigmas", ",".join(repr(float(s)) for s in self.low_sigmas))),
        )

    def op(self, i):
        reports = []
        for j, (name, model, sigmas, size_flags) in enumerate(self.runs):
            text = self.cli(
                "simulate", "--theta0", model["theta0"], "--tau", model["tau"],
                "--rho", ",".join(map(repr, model["rho"])), "--alpha", ALPHA,
                *size_flags, "--seed", self.seed + 2 * (i + 1) + j,
                "--out", self.path(f"{name}.csv"))
            reports.append(json.loads(text))
            self.units += len(sigmas)
        return reports

    def outputs(self, i):
        return [self.path(f"{name}.csv") for name, *_ in self.runs]

    def check(self, reports):
        for (name, model, sigmas, _), report in zip(self.runs, reports):
            with open(self.path(f"{name}.csv"), encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != len(sigmas):
                raise CheckFailed(f"{name}: {rows} rows for {len(sigmas)} requested")
            # proposals per study are Geometric(c_i): check the total against its law
            c = acceptance_probabilities(model["theta0"], model["tau"], sigmas, model["rho"])
            mean, sd = (1.0 / c).sum(), math.sqrt(((1.0 - c) / c**2).sum())
            attempts = report["total_attempts"]
            if abs(attempts - mean) > 5.0 * sd:
                raise CheckFailed(f"{name}: {attempts} proposals, expected {mean:.0f} +- {sd:.0f}")


WORKLOADS = {"ridge": Ridge, "posterior": Posterior, "survey": Survey, "simulate": Simulate}
