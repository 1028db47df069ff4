"""The performance records at the root of the repository: every BENCH_*.json
holds, for each workload and end-to-end metric of BENCHMARK.json, the
parent's and the change's value in every pair of benchmark runs, their
medians and quartiles, the metric's bound and a verdict that follows from
them; a claimed gain wins nine pairs in ten and lies outside the parent's
quartiles."""

import glob
import json
import os
import re
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
SIDES = ("parent", "change")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def verdict(m):
    # worse: the change's median is worse than the parent's by more than the
    # bound (a fraction of the parent's median); unresolved: a side's
    # quartile distance exceeds the bound and the change does not read
    # better in every run
    lower = m["better"] == "lower"
    sign = 1.0 if lower else -1.0
    limit = m["bound"] * m["parent_median"]
    if sign * (m["change_median"] - m["parent_median"]) > limit:
        return "worse"
    spread = max(m["parent_q3"] - m["parent_q1"], m["change_q3"] - m["change_q1"])
    all_better = (max(sign * v for v in m["change"])
                  < min(sign * v for v in m["parent"]))
    return "unresolved" if spread > limit and not all_better else "within-bound"


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record(path):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    rec = load(path)
    assert re.fullmatch(r"BENCH_PR%d\.json" % rec["pr"], os.path.basename(path))
    shas = rec["git_sha"]
    assert set(shas) == set(SIDES)
    assert all(re.fullmatch("[0-9a-f]{40}", s) for s in shas.values())
    assert shas["parent"] != shas["change"]
    assert set(rec["workloads"]) == {w["name"] for w in bench["workloads"]}
    for name, w in rec["workloads"].items():
        pairs = w["pairs"]
        assert pairs >= (10 if name == "low_mode" else 5)
        for side in SIDES:
            assert len(w["failed"][side]) == len(w["correct"][side]) == pairs
        assert set(w["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        for spec in bench["end_to_end"]:
            m = w["metrics"][spec["name"]]
            assert (m["unit"], m["better"], m["bound"]) == (
                spec["unit"], spec["better"], spec["bound"])
            for side in SIDES:
                assert len(m[side]) == pairs
                assert (m[side + "_median"], m[side + "_q1"],
                        m[side + "_q3"]) == quartiles(m[side])
            assert m["verdict"] == verdict(m)
    assert isinstance(rec["gain_claimed"], bool)
    assert rec["gain_claimed"] == bool(rec["claims"])
    for claim in rec["claims"]:
        w = rec["workloads"][claim["workload"]]
        m = w["metrics"][claim["metric"]]
        # the change wins nine pairs in ten (the lists are in pair order,
        # ties win for neither), its median lies beyond the parent's
        # quartiles on the better side, and no more tasks failed than at
        # the parent
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * c < sign * p
                   for p, c in zip(m["parent"], m["change"]))
        assert wins >= 0.9 * w["pairs"]
        if m["better"] == "lower":
            assert m["change_median"] < m["parent_q1"]
        else:
            assert m["change_median"] > m["parent_q3"]
        assert sum(w["failed"]["change"]) <= sum(w["failed"]["parent"])
