"""Span tracing around selectlik's public functions, from outside the package.

``install`` wraps each function in ``TRACED`` in every ``selectlik`` module
namespace that binds it (``loglik_terms`` is bound in ``model``,
``estimation`` and ``bayes``), so calls between modules are seen too.  A
wrapper records a span (name, start, end, parent, op id, two work counts) only
while an op is running; spans stay in memory until ``write_spans``.  A name
that no longer exists is skipped, and its metrics are reported as absent.
"""

import functools
import gzip
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _gauss_elems(args, kwargs, out):
    return int(np.size(out)), 0


def _terms_elems(args, kwargs, out):
    # (T, U, N) cells times K bands: the size of the band-mass tensor
    steps = args[5] if len(args) > 5 else kwargs["steps"]
    return int(np.size(out)) * len(steps.weights), 0


def _grid_cells(args, kwargs, out):
    return int(np.size(out.values)), 0


def _proposals(args, kwargs, out):
    return int(np.sum(out.n_attempts)), len(out.studies)


# span name -> (module, attribute, (work, extra) counts taken from the call)
TRACED = {
    "normal.log_gauss_mass": ("selectlik._normal", "log_gauss_mass", _gauss_elems),
    "model.log_band_masses": ("selectlik.model", "log_band_masses", None),
    "model.loglik_terms": ("selectlik.model", "loglik_terms", _terms_elems),
    "estimation.loglik_grid": ("selectlik.estimation", "loglik_grid", _grid_cells),
    "estimation.fit_mle": ("selectlik.estimation", "fit_mle", None),
    "estimation.diameter_probe": ("selectlik.estimation", "diameter_probe", None),
    "estimation.profile_theta_interval": ("selectlik.estimation", "profile_theta_interval", None),
    "estimation.profile_theta_loglik": ("selectlik.estimation", "profile_theta_loglik", None),
    "asymptotics.witness_loglik": ("selectlik.asymptotics", "witness_loglik", None),
    "asymptotics.limit_loglik": ("selectlik.asymptotics", "limit_loglik", None),
    "sampling.simulate_hedges": ("selectlik.sampling", "simulate_hedges", _proposals),
    "bayes.grid_posterior": ("selectlik.bayes", "grid_posterior", None),
    "cli.main": ("selectlik.cli", "main", None),
}

NAME, START, END, PARENT, OP, WORK, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # spans are recorded only while this is set
        self._local = threading.local()

    def wrap(self, name, fn, work):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if work is not None:
                span[WORK], span[EXTRA] = work(args, kwargs, out)
            return out

        return traced

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,work,extra\n")
            fh.writelines(",".join(map(str, s)) + "\n" for s in self.spans)


def install(tracer):
    """Wrap every traced function; returns the span names that were absent."""
    absent = []
    for name, (module, attr, work) in TRACED.items():
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, work)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "selectlik" or mod_name.startswith("selectlik.")) and getattr(
                mod, attr, None
            ) is original:
                setattr(mod, attr, wrapped)
    return absent


def aggregate(spans):
    """Per span name: calls, total s, self s, work counts; plus nested-call counts.

    Self time is a span's duration minus the durations of its direct child
    spans (children of one span never overlap: one thread, one stack).
    ``within[(outer, inner)]`` counts inner spans that have an outer ancestor.
    """
    total = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "extra": 0})
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    within = defaultdict(int)
    for i, span in enumerate(spans):
        agg = total[span[NAME]]
        duration = span[END] - span[START]
        agg["calls"] += 1
        agg["s"] += duration
        agg["self_s"] += duration - child_time[i]
        agg["work"] += span[WORK]
        agg["extra"] += span[EXTRA]
        seen, parent = set(), span[PARENT]
        while parent >= 0:
            outer = spans[parent][NAME]
            if outer not in seen:
                seen.add(outer)
                within[(outer, span[NAME])] += 1
            parent = spans[parent][PARENT]
    return total, within


def _per_op(span, key):
    return lambda t, w, ops: t[span][key] / ops


def _ratio(span, num, den, scale):
    return lambda t, w, ops: scale * t[span][num] / t[span][den] if t[span][den] else 0.0


def _within(outer, inner):
    return lambda t, w, ops: w[(outer, inner)] / ops


# Per-layer metric -> (unit, better, value from the aggregates, the end-to-end
# metric and workload it should move).  Totals are divided by the number of
# traced ops, so counts repeat across runs of the same inputs.
LAYER_METRICS = {
    "normal.log_gauss_mass.calls": ("count/op", "lower", _per_op("normal.log_gauss_mass", "calls"), "work_per_s on posterior"),
    "normal.log_gauss_mass.self_s": ("s/op", "lower", _per_op("normal.log_gauss_mass", "self_s"), "work_per_s on posterior"),
    "normal.log_gauss_mass.elems": ("count/op", "lower", _per_op("normal.log_gauss_mass", "work"), "work_per_s on posterior"),
    "model.log_band_masses.calls": ("count/op", "lower", _per_op("model.log_band_masses", "calls"), "op_p50_s on ridge"),
    "model.log_band_masses.s": ("s/op", "lower", _per_op("model.log_band_masses", "s"), "op_p50_s on ridge"),
    "model.loglik_terms.calls": ("count/op", "lower", _per_op("model.loglik_terms", "calls"), "peak_rss_mb and work_per_s on posterior"),
    "model.loglik_terms.s": ("s/op", "lower", _per_op("model.loglik_terms", "s"), "peak_rss_mb and work_per_s on posterior"),
    "model.loglik_terms.self_s": ("s/op", "lower", _per_op("model.loglik_terms", "self_s"), "peak_rss_mb and work_per_s on posterior"),
    "model.loglik_terms.elems": ("count/op", "lower", _per_op("model.loglik_terms", "work"), "peak_rss_mb and work_per_s on posterior"),
    "model.loglik_terms.bytes_computed": ("B/op", "lower", lambda t, w, ops: 8.0 * t["model.loglik_terms"]["work"] / ops, "peak_rss_mb and work_per_s on posterior"),
    "model.loglik_terms.us_per_call": ("us", "lower", _ratio("model.loglik_terms", "s", "calls", 1e6), "work_per_s on survey"),
    "estimation.loglik_grid.s": ("s/op", "lower", _per_op("estimation.loglik_grid", "s"), "op_p50_s and work_per_s on ridge"),
    "estimation.loglik_grid.self_s": ("s/op", "lower", _per_op("estimation.loglik_grid", "self_s"), "op_p50_s and work_per_s on ridge"),
    "estimation.loglik_grid.us_per_cell": ("us", "lower", _ratio("estimation.loglik_grid", "s", "work", 1e6), "op_p50_s and work_per_s on ridge"),
    "estimation.fit_mle.calls": ("count/op", "lower", _per_op("estimation.fit_mle", "calls"), "work_per_s on survey; op_p50_s on ridge"),
    "estimation.fit_mle.s": ("s/op", "lower", _per_op("estimation.fit_mle", "s"), "work_per_s on survey; op_p50_s on ridge"),
    "estimation.fit_mle.self_s": ("s/op", "lower", _per_op("estimation.fit_mle", "self_s"), "work_per_s on survey; op_p50_s on ridge"),
    "estimation.fit_mle.objective_evals": ("count/op", "lower", _within("estimation.fit_mle", "model.loglik_terms"), "work_per_s on survey; op_p50_s on ridge"),
    "estimation.diameter_probe.s": ("s/op", "lower", _per_op("estimation.diameter_probe", "s"), "work_per_s on survey"),
    "estimation.profile_theta_interval.s": ("s/op", "lower", _per_op("estimation.profile_theta_interval", "s"), "work_per_s on survey"),
    "estimation.profile_theta_interval.profile_evals": ("count/op", "lower", _within("estimation.profile_theta_interval", "estimation.profile_theta_loglik"), "work_per_s on survey"),
    "asymptotics.witness_loglik.calls": ("count/op", "lower", _per_op("asymptotics.witness_loglik", "calls"), "work_per_s on survey"),
    "asymptotics.witness_loglik.s": ("s/op", "lower", _per_op("asymptotics.witness_loglik", "s"), "work_per_s on survey"),
    "asymptotics.limit_loglik.s": ("s/op", "lower", _per_op("asymptotics.limit_loglik", "s"), "work_per_s on survey"),
    "sampling.simulate_hedges.s": ("s/op", "lower", _per_op("sampling.simulate_hedges", "s"), "work_per_s on simulate"),
    "sampling.simulate_hedges.proposals": ("count/op", "lower", _per_op("sampling.simulate_hedges", "work"), "work_per_s on simulate"),
    "sampling.simulate_hedges.acceptance": ("fraction", "higher", _ratio("sampling.simulate_hedges", "extra", "work", 1.0), "work_per_s on simulate"),
    "sampling.simulate_hedges.us_per_proposal": ("us", "lower", _ratio("sampling.simulate_hedges", "s", "work", 1e6), "work_per_s on simulate"),
    "bayes.grid_posterior.s": ("s/op", "lower", _per_op("bayes.grid_posterior", "s"), "op_p50_s on posterior"),
    "bayes.grid_posterior.self_s": ("s/op", "lower", _per_op("bayes.grid_posterior", "self_s"), "op_p50_s on posterior"),
    "cli.main.s": ("s/op", "lower", _per_op("cli.main", "s"), "op_p50_s on posterior and simulate"),
    "cli.self_s": ("s/op", "lower", _per_op("cli.main", "self_s"), "op_p50_s on posterior and simulate"),
}


def layer_metrics(spans, n_ops):
    """Every metric in LAYER_METRICS as {"value", "unit"}, per traced op."""
    total, within = aggregate(spans)
    return {
        name: {"value": fn(total, within, max(n_ops, 1)), "unit": unit}
        for name, (unit, _, fn, _) in LAYER_METRICS.items()
    }
