"""Run every workload on several seeds and print the benchmark's figures.

    python3 perfbench/report.py [--seeds 1-10] [--workloads a,b] [--record FILE]

First runs selftest.py.  Then, for each workload, runs run.py once per seed
untraced and once traced (first seed).  Prints per workload the median of
setup_s, solve_s and peak_rss_mb with units, their spread (interquartile
range over median) against the bound in BENCHMARK.json, the error rate, and
the per-layer self times of the traced run with the tracing overhead and the
share of traced solve time outside every wrapped call.  --record writes the
same figures, the machine facts and the jobs left out to FILE as JSON.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from workloads import LEFT_OUT  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit("run.py failed (%d) on %s seed %d:\n%s"
                         % (proc.returncode, workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["facts"] = next(json.loads(line.split(":", 1)[1]) for line in lines
                           if line.startswith("  machine: "))
    result["deviations"] = [line.split(": ", 1)[1] for line in lines
                            if line.startswith("  known deviation")]
    print("  %s seed %d trace %d: %.0f s, %s" % (
        workload, seed, trace, time.monotonic() - start,
        {k: round(v["value"], 4) for k, v in result["metrics"].items()
         if not trace or k.startswith("trace.")}), file=sys.stderr, flush=True)
    return result


def summarize(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        out[name] = {"median": mid, "unit": runs[0]["metrics"][name]["unit"],
                     "spread": (q3 - q1) / mid if mid else 0.0, "bound": bounds.get(name),
                     "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="trotterlab benchmark report")
    parser.add_argument("--seeds", default="1-10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--record", help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT).returncode:
        raise SystemExit("selftest failed")
    seeds = parse_seeds(args.seeds)
    record = {"seconds": seconds, "workloads": {}, "left_out": LEFT_OUT}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        traced = one_run(workload, seeds[0], seconds, 1)
        record["machine"] = runs[0]["facts"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end = summarize(runs, bounds)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        covered = 1.0 - layers["trace.uncovered_share"]
        record["workloads"][workload] = {
            "seeds": seeds, "end_to_end": end, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "per_layer": layers,
            "layer_share_of_traced_solve": covered,
            "known_deviations": sorted({d for r in runs for d in r["deviations"]}),
        }
        print("\n%s  (%d seeds, %d s runs)" % (workload, len(seeds), seconds))
        for name, m in end.items():
            print("  %-12s %12.6g %-3s spread %5.1f%% of median (bound %s)" % (
                name, m["median"], m["unit"], 100 * m["spread"], m["bound"]))
        print("  %-12s %12.6g     (%d failed of %d operations)" % (
            "error_rate", failed / attempted, failed, attempted))
        print("  per-layer, traced run (one set-up plus one pass):")
        timed = sorted(((v, k) for k, v in layers.items()
                        if k.endswith("_s") and not k.startswith("trace.")
                        and not k.endswith("per_s") and v > 0), reverse=True)
        for value, name in timed:
            print("    %-28s %10.4f s" % (name, value))
        for name in ("sector.propagate_calls", "sector.matvec_calls", "norms.abs_matvec_calls",
                     "sector.enumerate_states", "norms.column_states_per_s",
                     "spectral.step_s.tile", "spectral.step_s.SO"):
            if layers[name]:
                print("    %-28s %10.6g" % (name, layers[name]))
        print("  traced solve %.3f s (untraced median %.3f s); layer self times cover "
              "%.2f%% of it, uncovered share %.2f%%; tracing overhead %.3f" % (
                  layers["trace.solve_s"], end["solve_s"]["median"], 100 * covered,
                  100 * layers["trace.uncovered_share"], layers["trace.overhead"]))
        for line in record["workloads"][workload]["known_deviations"]:
            print("  known deviation: " + line)
    print("\nmachine: " + json.dumps(record.get("machine"), sort_keys=True))
    print("left out:")
    for job, why in LEFT_OUT.items():
        print("  %s: %s" % (job, why))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
