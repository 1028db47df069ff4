"""Self-tests of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout.  For each workload (all three by default):

* two traced runs on one seed report identical work counts (every per-layer
  metric counted in calls, elements, steps or bytes);
* each traced run computes the same outputs with tracing on and off (same
  roots, same CLI output bytes), and both runs compute the same outputs;
* a run in a directory that holds only BENCHMARK.json and perfbench/ exits
  with a nonzero code and prints no result.

Exits with 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
WORKLOADS = ("high_mode", "low_mode", "galerkin_cli")
COUNT_UNITS = ("count", "B")


def run(workload, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)


def traced(workload):
    proc = run(workload)
    if proc.returncode != 0:
        fail("%s: run.py exited with %d" % (workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench_work", "trace-%s-seed%d.json"
                        % (workload, SEED))
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    return result, trace


def digests(round_):
    return [(t["task"], t["digest"]) for t in round_["tasks"]]


def fail(message):
    print("FAIL " + message)
    sys.exit(1)


def check_workload(workload):
    (r1, t1), (r2, t2) = traced(workload), traced(workload)
    for r in (r1, r2):
        if not r["correct"]:
            fail("%s: traced run not correct (failed %d)" % (workload, r["failed"]))
    for t in (t1, t2):
        if digests(t["untraced"]) != digests(t["traced"]):
            fail("%s: outputs differ with tracing on and off" % workload)
    if digests(t1["traced"]) != digests(t2["traced"]):
        fail("%s: outputs differ between two runs on seed %d" % (workload, SEED))
    counts = sorted(k for k, v in r1["metrics"].items()
                    if v["unit"] in COUNT_UNITS)
    differ = [k for k in counts
              if r1["metrics"][k]["value"] != r2["metrics"][k]["value"]]
    if differ:
        fail("%s: work counts differ between runs: %s" % (workload, differ))
    print("ok   %s: %d work counts repeat, outputs identical with tracing on "
          "and off" % (workload, len(counts)))


def check_bare_directory():
    bare = os.path.join(".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("galerkin_cli", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("bare directory: exit code %d, output %r"
             % (proc.returncode, proc.stdout[-200:]))
    print("ok   bare directory: exit code %d, no result" % proc.returncode)


def main(argv):
    for workload in argv or WORKLOADS:
        check_workload(workload)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
