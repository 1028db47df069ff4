"""End-to-end tests of the command-line interface: outputs, determinism,
config handling and exit codes.  Everything runs in-process through main()."""

import csv
import json
import math
import os

import pytest

from hillkdv.cli import main

PI2 = math.pi ** 2


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_zero_potential(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--potential", "zero", "--K", "64", "--out", out])
    assert rc == 0
    obj = read_json(os.path.join(out, "spectrum.json"))
    assert obj["trust_count"] == 30
    # lambda_1^- ~ pi^2 for q = 0
    assert obj["periodic"][1][0] == pytest.approx(PI2, rel=1e-9)
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert rows[0][0].startswith("# config_hash=")
    assert rows[1][0] == "n"
    first = rows[2]
    assert int(first[0]) == 1
    assert float(first[5]) == pytest.approx(0.0, abs=1e-8)  # gamma_1


def test_spectrum_single_mode_gap(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--potential", "single-mode:c=0.05",
               "--K", "64", "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    gamma1 = float(rows[2][5])
    assert gamma1 == pytest.approx(0.1, abs=1e-5)


def test_spectrum_deterministic_bytes(tmp_path):
    outs = []
    for d in ("a", "b"):
        out = str(tmp_path / d)
        rc = main(["spectrum", "--potential", "random:sup=0.1,nmax=6",
                   "--seed", "42", "--K", "64", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "spectrum.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_spectrum_config_file(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = single-mode:c=0.02\nk = 64\n")
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--config", str(cfgfile), "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert float(rows[2][5]) == pytest.approx(0.04, abs=1e-5)


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = single-mode:c=0.02\n")
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--config", str(cfgfile),
               "--potential", "single-mode:c=0.05", "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert float(rows[2][5]) == pytest.approx(0.1, abs=1e-5)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_matches_oracle(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["reduce", "--potential", "single-mode:c=0.05", "--out", out])
    assert rc == 0
    obj = read_json(os.path.join(out, "reduce.json"))
    assert obj["worst_relative_mismatch"] < 1e-6
    assert all(r["status"] == "ok" for r in obj["rows"])
    for r in obj["rows"]:
        assert r["converged"] is True
        assert r["method"] == "fixed-point"
        assert r["terms"] >= 1
    rows = read_csv(os.path.join(out, "reduce.csv"))
    assert rows[1] == ["n", "status", "xi_1_re", "xi_2_re", "gap",
                       "contraction_bound", "method", "terms", "converged",
                       "oracle_mismatch"]
    assert all(row[6:9] == ["fixed-point", str(r["terms"]), "True"]
               for row, r in zip(rows[2:], obj["rows"]))


def test_reduce_below_threshold_rows(tmp_path):
    # a potential with n_s > 1 run from n_lo = 1 marks low rows
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[run]\npotential = single-mode:c=0.2\nn_lo = 1\nn_hi = 8\n")
    out = str(tmp_path / "o")
    rc = main(["reduce", "--config", str(cfgfile), "--out", out])
    assert rc == 0
    obj = read_json(os.path.join(out, "reduce.json"))
    assert obj["n_s"] > 1
    statuses = {r["n"]: r["status"] for r in obj["rows"]}
    assert statuses[1] == "below-threshold"
    assert statuses[8] == "ok"


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_action_invariance(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["flow", "--potential", "single-mode:c=0.05", "--t", "0.5",
               "--out", out])
    assert rc == 0
    obj = read_json(os.path.join(out, "flow.json"))
    assert obj["asymptotic"] is True
    assert obj["action_invariance"] is True
    assert max(obj["action_invariance_defect"]) < 1e-12
    rows = read_csv(os.path.join(out, "flow.csv"))
    assert rows[1] == ["n", "action", "frequency", "amp_t0", "amp_t1"]
    assert float(rows[2][3]) == pytest.approx(float(rows[2][4]), abs=1e-12)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_airy_demo_suite(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["verify", "--suite", "airy-demo", "--out", out])
    assert rc == 0
    summary = read_json(os.path.join(out, "verify.json"))
    assert summary["suites_run"] == 1
    assert summary["suites_passed"] == 1
    rows = read_csv(os.path.join(out, "airy_demo.csv"))
    assert rows[1] == ["t", "sup_norm_distance", "component_1_distance"]
    sups = [float(r[1]) for r in rows[2:]]
    comps = [float(r[2]) for r in rows[2:]]
    assert min(sups) >= 0.1           # sup-norm distance stays macroscopic
    assert comps[0] < comps[-1]       # components move at the linear rate


def test_verify_isospectral_suite(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["verify", "--suite", "isospectral", "--out", out])
    assert rc == 0
    summary = read_json(os.path.join(out, "verify.json"))
    assert summary["results"][0]["max_lambda_drift"] < 1e-6


def test_verify_unknown_suite(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["verify", "--suite", "nope", "--out", out])
    assert rc == 2


# ---------------------------------------------------------------------------
# exit codes and config errors
# ---------------------------------------------------------------------------

def test_unknown_potential_spec_exit_2(tmp_path):
    rc = main(["spectrum", "--potential", "bogus", "--out",
               str(tmp_path / "o")])
    assert rc == 2


def test_malformed_potential_field_named(tmp_path, capsys):
    rc = main(["spectrum", "--potential", "single-mode:zz=1", "--out",
               str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "zz" in err  # the offending field is named


def test_non_numeric_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = zero\nk = notanint\n")
    rc = main(["spectrum", "--config", str(cfgfile),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "k" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--potential", "file:EMPTY"],
    ["--potential", "zero", "--K", "8"],
    ["--potential", "power-law:nmax=-1"],
    ["--potential", "random:nmax=0"],
    ["--potential", "random:nmax=abc"],
    ["--potential", "single-mode:c=x"],
    ["--potential", "zero", "--s", "0.3"],
    ["--potential", "zero", "--weight", "poly:a=x"],
    ["--potential", "file:ODD"],
])
def test_bad_config_exit_2(tmp_path, capsys, flags):
    # a potential file holding {}, K below 16, a negative and a zero nmax,
    # non-numeric nmax, c and weight exponent, s outside (-1/2, 0], a file
    # with odd modes
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    odd = tmp_path / "odd.json"
    odd.write_text('{"half_range": 2, "coeffs": [[1, 0.1, 0], [-1, 0.1, 0]]}')
    flags = [f.replace("EMPTY", str(empty)).replace("ODD", str(odd))
             for f in flags]
    rc = main(["spectrum"] + flags + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_missing_config_file(tmp_path):
    rc = main(["spectrum", "--config", str(tmp_path / "missing.ini"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_command_exit_2():
    assert main(["frobnicate"]) == 2


def test_potential_file_roundtrip(tmp_path):
    from hillkdv.sequences import FourierSeq
    seq = FourierSeq.from_pairs([(2, 0.05), (-2, 0.05)], K=4, real=True,
                                zero_mean=True, one_periodic=True)
    pf = tmp_path / "q.json"
    pf.write_text(seq.to_json())
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--potential", "file:%s" % pf, "--K", "64",
               "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert float(rows[2][5]) == pytest.approx(0.1, abs=1e-5)
