"""Command-line front end: simulate, fit, contour, probe, witness, bayes.

Every command is deterministic given its flags (plus seed), writes files
atomically (temp file + rename), and tags JSON output with a
``schema_version``.  Exit codes: 0 success, 2 input error, 3 numeric
non-convergence.
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import asymptotics, bayes, estimation, sampling
from .exceptions import (
    GridTooSmallError,
    InvalidInputError,
    NonConvergenceError,
    RejectionBudgetError,
    TruncationUnderflowError,
)
from .model import ModelParams, SelectionSteps, StudyObservation, log_selection_normalizer

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _float_list(text, flag):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _CliError(EXIT_INPUT, f"{flag} must be a comma-separated number list")


def _steps_from_flags(args):
    rho = _float_list(args.rho, "--rho")
    alpha = _float_list(args.alpha, "--alpha")
    try:
        return SelectionSteps(cuts=tuple(alpha), weights=tuple(rho))
    except InvalidInputError as exc:
        raise _CliError(EXIT_INPUT, f"invalid selection steps: {exc}")


def _grid_spec_from_flags(args):
    """GridSpec from --theta-range, --tau-range and --resolution ('n' or 'nt,nu')."""
    theta_range = _float_list(args.theta_range, "--theta-range")
    tau_range = _float_list(args.tau_range, "--tau-range")
    for flag, vals in (("--theta-range", theta_range), ("--tau-range", tau_range)):
        if len(vals) != 2:
            raise _CliError(EXIT_INPUT, f"{flag} must be 'lo,hi'")
    try:
        res = [int(v) for v in args.resolution.split(",")]
    except ValueError:
        res = []
    if not 1 <= len(res) <= 2:
        raise _CliError(
            EXIT_INPUT, "--resolution must be one or two comma-separated integers"
        )
    try:
        return estimation.GridSpec(*theta_range, *tau_range, res[0], res[-1])
    except InvalidInputError as exc:
        raise _CliError(EXIT_INPUT, str(exc))


def _read_studies(path):
    if not os.path.exists(path):
        raise _CliError(EXIT_INPUT, f"no such file: {path}")
    studies = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _CliError(EXIT_INPUT, f"{path}: empty file")
        if [h.strip() for h in header] != ["effect", "se"]:
            raise _CliError(EXIT_INPUT, f"{path}: header must be 'effect,se'")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 2 or any(cell.strip() == "" for cell in row):
                raise _CliError(EXIT_INPUT, f"{path}: malformed row {row_num}")
            try:
                effect, se = float(row[0]), float(row[1])
            except ValueError:
                raise _CliError(EXIT_INPUT, f"{path}: non-numeric value in row {row_num}")
            try:
                studies.append(StudyObservation(effect=effect, se=se))
            except InvalidInputError as exc:
                raise _CliError(EXIT_INPUT, f"{path}: row {row_num}: {exc}")
    if not studies:
        raise _CliError(EXIT_INPUT, f"{path}: no study rows")
    return studies


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".selectlik-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_grid(path, header, theta_axis, tau_axis, values):
    """Long-format grid CSV: a 'theta,tau,<header>' line, then one row per cell."""
    lines = [f"theta,tau,{header}"]
    taus = tau_axis.tolist()
    for theta, row in zip(theta_axis.tolist(), values.tolist()):
        lines.extend(f"{theta!r},{tau!r},{v!r}" for tau, v in zip(taus, row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _emit_json(payload, out_path=None):
    payload = _jsonable({"schema_version": SCHEMA_VERSION, **payload})
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _jsonable(value):
    """Strict-JSON copy of a payload: non-finite floats become "inf", "-inf", "nan"."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("-inf" if value < 0 else "inf")
    return value


def _cmd_simulate(args):
    steps = _steps_from_flags(args)
    if args.sigmas:
        sigmas = _float_list(args.sigmas, "--sigmas")
    else:
        if args.n_studies is None or args.sigma_value is None:
            raise _CliError(
                EXIT_INPUT, "provide --sigmas or both --n-studies and --sigma-value"
            )
        sigmas = [args.sigma_value] * args.n_studies
    try:
        params = ModelParams(theta0=args.theta0, tau=args.tau, steps=steps)
        config = sampling.SimulationConfig(
            params=params,
            sigmas=tuple(sigmas),
            seed=args.seed,
            max_rejections_per_study=args.max_rejections,
        )
    except InvalidInputError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    try:
        result = sampling.simulate_hedges(config)
    except RejectionBudgetError as exc:
        raise _CliError(EXIT_NUMERIC, str(exc))
    rows = ["effect,se"] + [
        f"{float(s.effect)!r},{float(s.se)!r}" for s in result.studies
    ]
    _atomic_write(args.out, "\n".join(rows) + "\n")
    normalizers = [
        float(np.exp(log_selection_normalizer(params, s))) for s in sorted(set(sigmas))
    ]
    _emit_json(
        {
            "n_studies": len(result.studies),
            "total_attempts": int(result.n_attempts.sum()),
            "acceptance_rate": result.acceptance_rate,
            "model_acceptance_probability": normalizers
            if len(normalizers) > 1
            else normalizers[0],
            "out": args.out,
        }
    )
    return EXIT_OK


def _fit_payload(fit):
    p = fit.params_hat
    return {
        "theta0_hat": p.theta0,
        "tau_hat": p.tau,
        "cuts": list(p.steps.cuts),
        "weights_hat": list(p.steps.weights),
        "loglik_hat": fit.loglik_hat,
        "converged": fit.converged,
        "n_restarts_used": fit.n_restarts_used,
        "gradient_norm_at_opt": fit.gradient_norm_at_opt,
    }


def _cmd_fit(args):
    steps = _steps_from_flags(args)
    data = _read_studies(args.studies)
    try:
        fit = estimation.fit_mle(data, steps, free_weights=args.free_weights)
    except NonConvergenceError as exc:
        _emit_json(_fit_payload(exc.best), args.out)
        raise _CliError(EXIT_NUMERIC, "fit did not converge (best point emitted)")
    except InvalidInputError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    _emit_json(_fit_payload(fit), args.out)
    return EXIT_OK


def _cmd_contour(args):
    steps = _steps_from_flags(args)
    data = _read_studies(args.studies)
    spec = _grid_spec_from_flags(args)
    grid = estimation.loglik_grid(
        data, spec, steps, profile_weights=args.profile_weights
    )
    _write_grid(args.out, "loglik", grid.theta_axis, grid.tau_axis, grid.values)
    return EXIT_OK


def _cmd_probe(args):
    steps = _steps_from_flags(args)
    data = _read_studies(args.studies)
    n_values = _float_list(args.n_values, "--n-values")
    try:
        fit = estimation.fit_mle(data, steps)
    except NonConvergenceError as exc:
        raise _CliError(EXIT_NUMERIC, "fit did not converge; cannot anchor the probe")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            report = estimation.diameter_probe(
                data, fit.loglik_hat, steps, args.level, n_values
            )
        except InvalidInputError as exc:
            raise _CliError(EXIT_INPUT, str(exc))
    _emit_json(
        {
            "level": report.level,
            "chi2_threshold": report.chi2_threshold,
            "loglik_hat": fit.loglik_hat,
            "probed_ray": [
                {
                    "n": p.n,
                    "theta0": p.theta0,
                    "tau": p.tau,
                    "loglik": p.loglik,
                    "accepted": p.accepted,
                }
                for p in report.probed_ray
            ],
            "max_accepted_n": report.max_accepted_n,
            "unbounded": report.unbounded,
            "diameter_lower_bound": report.diameter_lower_bound,
            "limit_loglik": report.limit_loglik,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_witness(args):
    n_values = _float_list(args.n, "--n")
    b = math.inf if args.b in (None, "inf") else float(args.b)
    rows = ["n,sup_error"]
    try:
        for n in n_values:
            spec = asymptotics.WitnessSpec(n=n, c=args.c, a=args.a, b=b)
            grid = asymptotics.default_error_grid(args.a, b)
            rows.append(f"{n!r},{asymptotics.witness_sup_error(spec, grid)!r}")
    except InvalidInputError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    if args.out:
        _atomic_write(args.out, "\n".join(rows) + "\n")
    else:
        sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_bayes(args):
    steps = _steps_from_flags(args)
    data = _read_studies(args.studies)
    spec = _grid_spec_from_flags(args)
    try:
        prior = bayes.PriorSpec(tau_scale=args.tau_prior_scale)
        post = bayes.grid_posterior(data, steps, spec, prior, mass=args.mass)
    except (InvalidInputError, GridTooSmallError) as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    if args.out_grid:
        _write_grid(
            args.out_grid, "log_post", post.theta_axis, post.tau_axis, post.log_post
        )
    _emit_json(
        {
            "credible_mass": args.mass,
            "theta0_interval": list(post.credible_intervals["theta0"]),
            "tau_interval": list(post.credible_intervals["tau"]),
            "log_normalizer": post.normalizer,
        },
        args.out,
    )
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="selectlik",
        description="Selection models for publication bias: simulate, fit, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_steps_flags(p):
        p.add_argument("--rho", default="1", help="comma list of band weights rho_1..rho_K")
        p.add_argument(
            "--alpha", default="0,1", help="comma list of p-value cuts alpha_0..alpha_K"
        )

    p = sub.add_parser("simulate", help="simulate a published meta-analysis corpus")
    add_steps_flags(p)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sigmas", help="comma list of study standard errors")
    p.add_argument("--n-studies", type=int)
    p.add_argument("--sigma-value", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rejections", type=int, default=10**6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a studies file")
    p.add_argument("studies")
    add_steps_flags(p)
    p.add_argument("--free-weights", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("contour", help="log-likelihood grid as long-format CSV")
    p.add_argument("studies")
    add_steps_flags(p)
    p.add_argument("--theta-range", default="-60,5")
    p.add_argument("--tau-range", default="0,10")
    p.add_argument("--resolution", default="100")
    p.add_argument("--profile-weights", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("probe", help="witness-ray probe of the LR confidence region")
    p.add_argument("studies")
    add_steps_flags(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--n-values", default="10,100,1000,10000")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("witness", help="truncated-normal vs exponential convergence table")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", default="inf")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--n", default="10,100,1000,10000")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bayes", help="grid posterior with credible intervals")
    p.add_argument("studies")
    add_steps_flags(p)
    p.add_argument("--theta-range", default="-5,5")
    p.add_argument("--tau-range", default="0,5")
    p.add_argument("--resolution", default="400")
    p.add_argument("--tau-prior-scale", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=0.95)
    p.add_argument("--out")
    p.add_argument("--out-grid")
    p.set_defaults(func=_cmd_bayes)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TruncationUnderflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
