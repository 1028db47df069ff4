"""One fresh benchmark process: set up a workload, then run its tasks.

    python3 perfbench/worker.py --workload W --seed N --mode MODE \
        --work-dir DIR [--first I --measured S0 --until S1 [--whole]]
        [--trace-out PREFIX]

MODE is `run` or `trace`.  `run` sets up, then runs the workload's tasks in
round order, starting at task execution I (execution i runs task i mod n of
n), while the measured time, S0 seconds from earlier workers plus this
worker's tasks, is below S1; with --whole it goes on to the end of the
round.  `trace` sets up under the tracer, runs one untraced round and one
traced round, and writes the spans to PREFIX.npz and the summary to
PREFIX.json.  The worker prints one JSON object as its last line of standard
output; run.py reads it.
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy is imported

import argparse
import hashlib
import json
import os
import platform
import resource
import sys


def env_stamp():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_task(task, tracer=None):
    """Run one task; a library error or a failed gate marks it failed, and
    the caller goes on."""
    if tracer is not None:
        tracer.set_task(task.name)
    t = time.perf_counter()
    try:
        ok, blob = task.fn()
        error = None if ok else "correctness gate failed"
    except (ArithmeticError, ValueError) as exc:
        ok, blob, error = False, b"", "%s: %s" % (type(exc).__name__, exc)
    return {"task": task.name, "s": time.perf_counter() - t, "ok": bool(ok),
            "error": error, "digest": hashlib.sha256(blob).hexdigest()}


def run_round(tasks, tracer=None):
    start = time.perf_counter()
    results = [run_task(task, tracer) for task in tasks]
    return {"wall_s": time.perf_counter() - start, "tasks": results}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--measured", type=float, default=0.0)
    p.add_argument("--until", type=float, default=0.0)
    p.add_argument("--whole", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    import workloads
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.set_task("setup")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    wl.setup()
    out = {"setup_s": time.perf_counter() - T0, "env": env_stamp()}

    if args.mode == "run":
        tasks = wl.tasks()
        done = []
        i, measured = args.first, args.measured
        while measured < args.until or (args.whole and i % len(tasks)):
            done.append(run_task(tasks[i % len(tasks)]))
            measured += done[-1]["s"]
            i += 1
        out.update(tasks=done, round_size=len(tasks), peak_rss_mb=peak_rss_mb())
    else:
        tracer.uninstall()
        tasks = wl.tasks()
        out["untraced"] = run_round(tasks)
        tracer.install()
        out["traced"] = run_round(tasks, tracer)
        tracer.uninstall()
        import numpy as np
        summary = tracer.summary()
        np.savez_compressed(args.trace_out + ".npz", names=np.array(tracer.names),
                            tasks=np.array(tracer.tasks), **tracer.arrays())
        out["layer"] = tracing.layer_metrics(summary)
        with open(args.trace_out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": out["env"], "summary": summary,
                       "untraced": out["untraced"], "traced": out["traced"]},
                      fh, indent=1, sort_keys=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
