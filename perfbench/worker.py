"""One measured part of a benchmark run, in its own process.

Set-up (imports, input generation, one untimed warm-up op) is timed from
the start of this script, so ``setup_s`` covers importing numpy, scipy and
selectlik, and ``ru_maxrss`` belongs to this workload alone.  Ops then run
back to back (closed loop, one client) until their summed time reaches
``--seconds``.  Each op's output check runs after its timed region.  The
last stdout line is a JSON record for ``run.py``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse
import json
import os
import resource
import shutil
import sys
import traceback

import numpy
import scipy

import tracing
import workloads


def run_op(workload, i, tracer):
    """Time op i, then check it.

    Returns (seconds, error or None, whether the output was wrong).
    """
    workload.stdout_bytes = workload.units = 0
    # Each op writes fresh files.  Replacing an existing file by rename can
    # make the file system flush it first (ext4 does), which would time the
    # disk instead of the program.
    for path in workload.outputs(i):
        if os.path.exists(path):
            os.unlink(path)
    if tracer is not None:
        tracer.op = i
    t0 = perf_counter()
    try:
        out = workload.op(i)
    except Exception:
        return perf_counter() - t0, traceback.format_exc(limit=3), False
    finally:
        if tracer is not None:
            tracer.op = None
    seconds = perf_counter() - t0
    try:
        workload.check(out)
    except Exception as exc:
        return seconds, traceback.format_exc(limit=3), isinstance(exc, workloads.CheckFailed)
    return seconds, None, False


def measure(args, sl, workdir):
    workload = workloads.WORKLOADS[args.workload](sl, workdir, args.seed, args.part, args.smoke)
    tracer, absent = None, []
    if args.trace:
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)

    errors, wrong = [], 0
    t0 = perf_counter()
    seconds, error, bad = run_op(workload, -1, None)  # the warm-up
    setup_s = t0 + seconds - T_START  # the warm-up's check is not set-up
    errors += [error] if error else []
    wrong += bad

    # op_times: successful ops only; work and busy time: every measured op
    times, work, bytes_written, busy, i = [], 0, 0, 0.0, 0
    while busy < args.seconds or i == 0:
        seconds, error, bad = run_op(workload, i, tracer)
        busy += seconds
        work += workload.units
        wrong += bad
        if error:
            errors.append(error)
        else:
            times.append(seconds)
        bytes_written += workload.stdout_bytes + sum(
            os.path.getsize(p) for p in workload.outputs(i) if os.path.exists(p)
        )
        i += 1

    record = {
        "setup_s": setup_s,
        "op_times": times,
        "work": work,
        "busy_s": busy,
        "attempted": i + 1,
        "failed": len(errors),
        "wrong_outputs": wrong,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, i)
        layers["cli.bytes_written"] = {"value": bytes_written / i, "unit": "B/op"}
        record["layers"] = layers
        record["targets"] = {name: m[-1] for name, m in tracing.LAYER_METRICS.items()}
        record["targets"]["cli.bytes_written"] = "op_p50_s on posterior and simulate"
        record["absent"] = absent
        spans_path = os.path.join(args.results, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, args.root)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--results", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import selectlik
    import selectlik.cli

    if os.path.dirname(os.path.abspath(selectlik.__file__)) != os.path.join(src, "selectlik"):
        raise SystemExit(f"selectlik imported from {selectlik.__file__}, not {src}")

    workdir = os.path.join(args.results, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, selectlik, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(main()))
