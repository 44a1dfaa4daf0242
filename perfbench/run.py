"""boltzlab benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload forward-32 --seed 0 --seconds 10 --trace 0

Run from the root of a boltzlab checkout (the program is imported from its
src/).  The workload runs in a process of its own (perfbench/workloads.py)
with BLAS and OpenMP threads pinned to the CPUs this process may use.

--trace 0 prints the end-to-end metrics, which every workload reports
(setup_s, wall_s, peak_rss_mib), and, on readable "detail" lines before the
result, the figures of that workload alone (solve_s, stage_*_s,
probe_*_s).  --trace 1 runs the workload with layer spans recorded
(perfbench/tracing.py) and prints the per-layer metrics, the self time per
span, the traced wall time per pass and the tracing overhead (recorded
calls times the measured cost of one).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without a checkout around it, the command
exits with code 2 and prints no result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("forward-32", "pipeline-default", "probe-direct")
# set-up is measured this many times per run (the run itself plus set-up-only
# processes) and reported as the median
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode, deadline):
    """Run workloads.py in a fresh process; return its result dict."""
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    result = work / ("result-%s.json" % mode)
    if result.exists():
        result.unlink()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(t0), "--out", str(work / "scratch"),
           "--result", str(result)]
    # subprocess.run kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT),
                          stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        sys.exit("workload process (%s) failed with code %d"
                 % (mode, proc.returncode))
    with open(result) as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    for need in (ROOT / "src" / "boltzlab" / "__init__.py",
                 ROOT / "configs" / "default.json"):
        if not need.is_file():
            print("not a boltzlab checkout: %s is missing" % need,
                  file=sys.stderr)
            return 2

    if args.trace:
        base = run_child(args, "trace", deadline)
        metrics = base["layers"]
        print("self time per span (traced, %d passes):" % base["passes"])
        for row in base["spans"]:
            print("  %-36s calls %8d  total %9.4f s  self %9.4f s"
                  % (row["span"], row["calls"], row["total_s"], row["self_s"]))
        if base["missing"]:
            print("missing per-layer metrics (wrapped function gone): "
                  + ", ".join(base["missing"]))
    else:
        base = run_child(args, "run", deadline)
        setups = [base["setup_s"]] + [run_child(args, "setup", deadline)["setup_s"]
                                      for _ in range(SETUP_SAMPLES - 1)]
        metrics = {"setup_s": _metric(statistics.median(setups), "s"),
                   "wall_s": _metric(statistics.median(base["pass_s"]), "s"),
                   "peak_rss_mib": _metric(base["peak_rss_mib"], "MiB")}
        # figures of this workload alone (solve_s, stage_*_s, probe_*_s):
        # readable lines only, since the result line holds the metrics
        # every workload reports
        for name, (value, unit) in base["metrics"].items():
            print("detail %s: %.6g %s" % (name, value, unit))

    attempted, failed = base["attempted"], base["failed"]
    for line in base["failures"]:
        print("FAILED " + line)
    for key, value in base["notes"].items():
        print("note %s: %s" % (key, value))
    print("%s seed %d: %d passes, %d operations attempted, %d failed"
          % (args.workload, args.seed, base["passes"], attempted, failed))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
