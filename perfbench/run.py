"""selectlik benchmark: end-to-end metrics per workload, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload ridge --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
This script uses only the standard library: it runs each measured part in a
fresh ``worker.py`` process, one at a time, so peak RSS belongs to that
workload, and prints a JSON details line and then the result line
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the workload runs in three parts, each with its own
set-up, so ``setup_s`` is a median of three; op times are pooled.  With
``--trace 1`` one part runs untraced and one traced on the same inputs: the
per-layer metrics come from the traced part and the tracing overhead is the
difference of their median op times.  ``--smoke`` shrinks every input for a
quick end-to-end pass.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ridge", "posterior", "survey", "simulate")
PARTS = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SELECTLIK_THREADS",
)

# End-to-end metric -> unit.  work_per_s counts grid cells on ridge and
# posterior, corpora on survey and published studies on simulate.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
WORK_UNIT = {"ridge": "cells", "posterior": "cells", "survey": "corpora", "simulate": "studies"}


class BenchError(Exception):
    pass


def machine():
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path, encoding="utf-8") as fh:
                info[key] = next(
                    line.split(":", 1)[1].strip() for line in fh if line.startswith(field)
                )
        except (OSError, StopIteration):
            info[key] = None
    return info


def run_part(workload, seed, part, seconds, trace, smoke, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--part", str(part),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--results", os.path.join(HERE, "results")]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    # the default (unthreaded) profile path is what the ridge workload measures
    env.pop("SELECTLIK_THREADS", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next part")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} part {part} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{workload} part {part} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(times)[n - 11], "ops": n}


def end_to_end(workload, parts):
    times = [t for p in parts for t in p["op_times"]]
    if not times:
        raise BenchError(f"{workload}: no op succeeded")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "op_p50_s": statistics.median(times),
        "work_per_s": sum(p["work"] for p in parts) / sum(p["busy_s"] for p in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    details = {
        "ops": len(times),
        "op_times_s": times,
        "op_tail_s": tail(times),
        "work_unit": WORK_UNIT[workload],
        "setup_s_parts": [p["setup_s"] for p in parts],
        "peak_rss_mb_parts": [p["peak_rss_mb"] for p in parts],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, details


def traced(untraced, traced_part):
    base = statistics.median(untraced["op_times"]) if untraced["op_times"] else 0.0
    with_trace = statistics.median(traced_part["op_times"]) if traced_part["op_times"] else 0.0
    metrics = dict(traced_part["layers"])
    metrics.update({
        "trace.untraced_op_p50_s": {"value": base, "unit": "s"},
        "trace.traced_op_p50_s": {"value": with_trace, "unit": "s"},
        "trace.overhead_s": {"value": with_trace - base, "unit": "s"},
    })
    details = {
        "absent": traced_part["absent"],
        "not_called": sorted(k for k, m in metrics.items() if m["value"] == 0),
        "spans_file": traced_part["spans_file"],
        "targets": traced_part["targets"],
    }
    return metrics, details


def run_workload(workload, args, deadline):
    if args.trace:
        share = args.seconds / 2.0
        parts = [run_part(workload, args.seed, 0, share, t, args.smoke, deadline) for t in (0, 1)]
        metrics, details = traced(*parts)
    else:
        n = 1 if args.smoke else PARTS
        parts = [run_part(workload, args.seed, part, args.seconds / n, 0, args.smoke, deadline)
                 for part in range(n)]
        metrics, details = end_to_end(workload, parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    details.update({
        "workload": workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "failed_frac": failed / attempted,
        "errors": [e for p in parts for e in p["errors"]][:5],
        "versions": parts[0]["versions"],
    })
    # correct: no op returned a wrong answer; ops that exited non-zero or
    # raised count in failed (and failed_frac) without making outputs wrong
    correct = sum(p["wrong_outputs"] for p in parts) == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "selectlik", "__init__.py")):
        print(f"error: no selectlik sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    host = machine()
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result, details = run_workload(workload, args, deadline)
            details["machine"] = host
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as fh:
                json.dump({"result": result, "details": details}, fh, indent=1)
            print(json.dumps({"details": details}))
            for metric, m in result["metrics"].items():
                print(f"{workload:10s} {metric:48s} {m['value']:.6g} {m['unit']}")
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
