"""Benchmark of the hillkdv toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.

Workloads (closed loop, one caller, one process; inputs built from --seed):
  high_mode     the reduction at n >= M_ms: criterion-5 kind (alpha_n at N_ms,
                adapted map up to M_ms, band-limited q) and criterion-6 kind
                (find_roots, adapted map and gap sandwich at M_ms + 1 with an
                isolated coefficient there); `reduction`/`sequences`/`operator`.
  low_mode      `hillkdv reduce` over 21-40 low modes of a smooth real, a rough
                s = -1/4 power-law and a complex potential, checked by the CLI
                against dense Galerkin; many small solves and Newton steps.
  galerkin_cli  `hillkdv spectrum` (real and complex, K = 256 and 512), `flow`,
                `verify --suite decay / isospectral / airy-demo` and the
                criterion-12 Riesz projector sweep; bypasses the reduction.

A round runs each task of the workload once.  With --trace 0 three fresh
worker processes run one after the other; each sets up the workload and
then carries on the sequence of rounds where the previous one stopped: the
k-th runs tasks while the time measured so far is below k/3 of --seconds,
and the last finishes the round it is in.  So each round is spread over the
whole run instead of one stretch of the machine's speed.  It reports

  setup_s      median over the three processes of the set-up time: import,
               input generation, the cold c_s / c_s' sweeps for every s the
               workload uses and the first eigensolve
  wall_s       median over rounds of the summed task times of a round
  tasks_per_s  tasks completed per second of measured time
  task_p50_s   median task time
  peak_rss_mb  largest peak resident set of the three processes

A task is one high-mode case, one CLI subcommand or one Riesz projector.  A
library error or a failed correctness gate marks a task failed; the run goes
on and reports `correct: false`.  The failed fraction and, where a run has at
least 22 tasks, the tail task time (the highest percentile with ten tasks
beyond it) are printed but are no metric: the failed fraction is 0 on a
correct run, and no run has enough tasks for a tail above the median.

With --trace 1 one fresh worker sets up under the tracer (tracer.py), runs
one untraced and one traced round, checks that both computed the same bytes,
and reports the per-layer metrics of the set-up plus the traced round, with
trace.overhead_s = traced minus untraced round time.  Spans and the full
per-function table are written to .perfbench_work/trace-<workload>-seed<N>.*

The worker processes cap the BLAS threads at nproc; the environment stamp
(git sha, nproc, versions, thread cap) is printed before the result, whose
JSON object is the last line of standard output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("high_mode", "low_mode", "galerkin_cli")
PROCESSES = 3
TIME_LIMIT_S = 170
WORK_ROOT = ".perfbench_work"


class BenchError(RuntimeError):
    pass


def git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


class Workers:
    """Starts worker processes one at a time, each within the run's time
    limit; subprocess.run kills and reaps a worker that overruns."""

    def __init__(self, args, root):
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                        MKL_NUM_THREADS=nproc)
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.work = os.path.join(WORK_ROOT, "%s-seed%d" % (args.workload,
                                                          args.seed))

    def run(self, mode, role, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--work-dir", os.path.join(self.work, role),
               *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker %s timed out" % role)
        if proc.returncode != 0:
            raise BenchError("worker %s exited with %d" % (role, proc.returncode))
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def failures(tasks):
    return [t for t in tasks if not t["ok"]]


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None when
    that percentile is not above the median."""
    xs = sorted(times)
    i = len(xs) - 11
    if 2 * (i + 1) <= len(xs):
        return None
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def measure(workers):
    outs, tasks = [], []
    for k in range(1, PROCESSES + 1):
        extra = ["--first", str(len(tasks)),
                 "--measured", repr(sum(t["s"] for t in tasks)),
                 "--until", repr(workers.args.seconds * k / PROCESSES)]
        outs.append(workers.run("run", "run%d" % k,
                                *extra + ["--whole"] * (k == PROCESSES)))
        tasks += outs[-1]["tasks"]
    n = outs[0]["round_size"]
    rounds = [tasks[i:i + n] for i in range(0, len(tasks), n)]
    setups = [out["setup_s"] for out in outs]
    times = [t["s"] for t in tasks]
    failed = failures(tasks)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(t["s"] for t in r) for r in rounds),
                   "s"),
        "tasks_per_s": ((len(tasks) - len(failed)) / sum(times), "1/s"),
        "task_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (max(out["peak_rss_mb"] for out in outs), "MB"),
    }
    notes = ["setup samples: %s s" % ", ".join("%.3f" % s for s in setups),
             "rounds: %d, tasks: %d (per process: %s)" % (
                 len(rounds), len(tasks),
                 ", ".join(str(len(o["tasks"])) for o in outs)),
             "failed_frac: %.4f (%d / %d)" % (len(failed) / len(tasks),
                                             len(failed), len(tasks))]
    t = tail(times)
    notes.append("task_tail_s: omitted, %d tasks (needs 22)" % len(tasks)
                 if t is None else
                 "task_tail_s: %.6f s (p%.1f of %d tasks)" % t)
    notes += ["task %-22s %9.4f s  %s" % (x["task"], x["s"],
                                          "ok" if x["ok"] else x["error"])
              for x in rounds[0]]
    return outs[0]["env"], metrics, len(tasks), failed, notes


def measure_traced(workers):
    prefix = os.path.join(WORK_ROOT, "trace-%s-seed%d" % (workers.args.workload,
                                                        workers.args.seed))
    out = workers.run("trace", "trace", "--trace-out", prefix)
    plain, traced = out["untraced"], out["traced"]
    tasks = plain["tasks"] + traced["tasks"]
    failed = failures(tasks)
    differ = [a["task"] for a, b in zip(plain["tasks"], traced["tasks"])
              if a["digest"] != b["digest"]]
    if differ:
        failed.append({"task": "trace-identity", "error":
                       "outputs differ with tracing on: %s" % ", ".join(differ)})
    metrics = {k: tuple(v) for k, v in out["layer"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    notes = ["untraced round %.4f s, traced round %.4f s" % (plain["wall_s"],
                                                            traced["wall_s"]),
             "outputs identical with tracing on and off: %s" % (not differ),
             "spans and per-function table: %s.npz, %s.json" % (prefix, prefix)]
    return out["env"], metrics, len(tasks), failed, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hillkdv", "__init__.py")):
        print("error: src/hillkdv not found; run from the root of a hillkdv "
              "checkout", file=sys.stderr)
        return 2
    workers = Workers(args, root)
    shutil.rmtree(workers.work, ignore_errors=True)
    try:
        env, metrics, attempted, failed, notes = (
            measure_traced if args.trace else measure)(workers)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workers.work, ignore_errors=True)

    env["git_sha"] = git_sha(root)
    print("env: " + json.dumps(env, sort_keys=True))
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in notes:
        print("  " + line)
    for t in failed:
        print("  FAILED %s: %s" % (t["task"], t["error"]))
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
