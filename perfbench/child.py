"""One workload process: set up, run timed passes, check every output.

run.py starts this script in a fresh interpreter and reads the one JSON line
it prints.  Everything the workload or the package prints goes to stderr.
With ``--setup-only`` the process exits as soon as it is ready, so run.py can
time set-up several times.  With ``--trace 1`` passes alternate untraced and
traced, which gives the tracing overhead within one process.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches["l%s_cache" % level] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "cpu": cpu,
        **caches,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args):
    sys.path.insert(0, str(ROOT / "src"))
    import trotterlab
    import workloads
    from tracer import Tracer, layer_metrics

    src = (ROOT / "src").resolve()
    if src not in Path(trotterlab.__file__).resolve().parents:
        raise SystemExit("trotterlab was imported from %s, not %s" % (trotterlab.__file__, src))
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        with tracer.span("setup"):
            workload.setup()
        tracer.uninstall()
    else:
        workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    deadline = ready + args.seconds
    min_passes = max(workload.min_passes, 2 if tracer else 1)
    walls = {False: [], True: []}
    attempted = failed = 0
    failures = []
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            with tracer.span("solve") if traced else contextlib.nullcontext():
                rows = workload.run(index)
        except Exception:
            traceback.print_exc()
            rows = [("pass %d raised" % index, False, None)] * workload.checks_per_pass
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - start)
        attempted += len(rows)
        for name, ok, detail in rows:
            if not ok:
                failed += 1
                failures.append("pass %d: %s (%s)" % (index, name, detail))
        index += 1
        typical = median(walls[False] + walls[True])
        if index >= min_passes and time.monotonic() + typical > deadline:
            break

    result = {
        "ready": ready,
        "walls": walls[False],
        "traced_walls": walls[True],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "deviations": sorted(workload.deviations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": machine_facts(),
    }
    if tracer:
        # the first pass also pays one-time warm-up costs; leave it out of
        # the overhead ratio when a later untraced pass exists
        untraced = walls[False][1:] or walls[False]
        result["per_layer"] = layer_metrics(tracer, walls[True], untraced)
        traces = ROOT / ".perfbench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / ("%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.dump(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    with contextlib.redirect_stdout(sys.stderr):
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
