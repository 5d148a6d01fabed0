"""trotterlab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads are defined in workloads.py.  Every workload process is a fresh
interpreter with TROTTERLAB_CACHE removed from its environment and BLAS
pinned to BLAS_THREADS threads.

--trace 0 reports the end-to-end metrics:
  setup_s      process start to ready (import, lattices, Jordan-Wigner
               operators, sector bases), median of SETUP_REPEATS set-up-only
               processes and the measuring process;
  solve_s      median wall time of one pass, ready to checked results; passes
               repeat until --seconds is spent;
  peak_rss_mb  peak resident memory of the measuring process.
failed / attempted is the error rate: an operation fails if it raises or its
output check fails.
--trace 1 reports per-layer metrics from a traced process (see tracer.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it repeat the numbers for a reader.  The exit code is 0 when
a result was printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0
# One BLAS thread.  With two threads on a two-core machine the Krylov
# propagation runs 2.3x slower (level-1 BLAS calls on 63 504-long vectors pay
# thread wake-ups each time) and pass times spread more.
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("TROTTERLAB_CACHE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def spawn(args, workdir, deadline, setup_only=False):
    """Run child.py once; return its result with setup_s filled in."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the %.0f s run limit" % RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError("workload process exited with code %d" % proc.returncode)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work", prefix="run-"))
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, workdir, deadline, setup_only=True)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
        result = spawn(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups"] = setups + [result["setup_s"]]
    return result


def end_to_end(result):
    return {
        "setup_s": {"value": median(result["setups"]), "unit": "s"},
        "solve_s": {"value": median(result["walls"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def describe(args, result, metrics):
    attempted, failed = result["attempted"], result["failed"]
    passes = len(result["walls"]) + len(result["traced_walls"])
    print("workload %s  seed %d  trace %d  passes %d"
          % (args.workload, args.seed, args.trace, passes))
    for name, metric in metrics.items():
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-28s %14.6g (%d failed of %d operations)" % (
        "error_rate", failed / attempted if attempted else 1.0, failed, attempted))
    if not args.trace:
        print("  pass times (s): " + " ".join("%.3f" % w for w in result["walls"]))
        print("  set-up times (s): " + " ".join("%.3f" % s for s in result["setups"]))
    else:
        print("  trace file: %s" % result["trace_file"])
    for line in result["failures"]:
        print("  FAILED " + line)
    for line in result["deviations"]:
        print("  known deviation, not counted: " + line)
    print("  machine: " + json.dumps(result["facts"], sort_keys=True))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="trotterlab benchmark, one run")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its workload process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "trotterlab" / "__init__.py").is_file():
        print("error: %s holds no src/trotterlab package to benchmark" % ROOT, file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    metrics = result["per_layer"] if args.trace else end_to_end(result)
    describe(args, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
