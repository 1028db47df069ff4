"""End-to-end tests of the command-line interface: outputs, determinism,
config handling and exit codes.  Everything runs in-process through main()."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_nan_phase_fails_torus_test(tmp_path):
    # omega_n t overflows at t = 1e308, so every flowed mode is NaN and the
    # flowed state is not on the torus of the initial one
    out = str(tmp_path / "o")
    rc = main(["flow", "--potential", "single-mode:c=0.05", "--K", "16",
               "--t", "1e308", "--out", out])
    assert rc == 1
    assert read_json(os.path.join(out, "flow.json"))["action_invariance"] \
        is False


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
    ["--potential", "single-mode:c=nan"],
    ["--potential", "zero", "--weight", "poly:a=nan"],
    ["--potential", "zero", "--weight", "poly:a=-1"],
    ["--potential", "zero", "--t", "inf"],
    ["reduce", "--potential", "power-law:nmax=8,a=1e308,e=1.5", "--s", "-0.25"],
    ["--potential", "random:sup=-1e308,nmax=1"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_config_exit_2(tmp_path, capsys, flags):
    # a potential file holding {}, K below 16, a negative and a zero nmax,
    # non-numeric nmax, c and weight exponent, s outside (-1/2, 0], a file
    # with odd modes, a NaN c and weight exponent, a negative weight
    # exponent, an infinite time, an infinite coefficient and a finite one
    # whose l1 norm squared overflows; flags without a subcommand run
    # spectrum, and no RuntimeWarning may escape
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    odd = tmp_path / "odd.json"
    odd.write_text('{"half_range": 2, "coeffs": [[1, 0.1, 0], [-1, 0.1, 0]]}')
    flags = [f.replace("EMPTY", str(empty)).replace("ODD", str(odd))
             for f in flags]
    if flags[0].startswith("--"):
        flags = ["spectrum"] + flags
    rc = main(flags + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_dt_flag_rejected(tmp_path):
    # no subcommand has a time step to set
    assert main(["flow", "--potential", "zero", "--dt", "1e-3",
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_import_loads_no_heavy_scipy():
    # a fresh process: this one has imported scipy.integrate for the oracles
    code = ("import sys, hillkdv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "[['scipy', p] for p in ('integrate', 'optimize', 'special', 'sparse')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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


# ---------------------------------------------------------------------------
# fuzzing: any command line gives an exit code, never a traceback
# ---------------------------------------------------------------------------

def _mostly(valid, bad):
    """valid in about three draws of four, bad in the rest."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else valid)


_JUNK = st.text(max_size=12)
# numbers a user may type: ordinary, negative, huge and tiny, or not a
# finite number at all
_NUMBER = _mostly(
    st.one_of(st.floats(-2.0, 2.0).map(repr),
              st.sampled_from(["-1", "0", "1e308", "-1e308", "5e-324"])),
    st.one_of(st.sampled_from(["nan", "inf", "-inf", "x", ""]), _JUNK))
_NMAX = _mostly(st.integers(1, 8).map(str),
                st.sampled_from(["0", "-2", "nan", "1e308", "x", ""]))


def _spec(name, fields):
    """name:key=value,... over the given fields, in the CLI grammar."""
    pairs = st.lists(st.sampled_from(sorted(fields)).flatmap(
        lambda k: st.tuples(st.just(k), fields[k])), max_size=3)
    return pairs.map(lambda kv: name + (":" + ",".join("%s=%s" % p for p in kv)
                                        if kv else ""))


_POTENTIAL = _mostly(
    st.one_of(
        _spec("zero", {"nmax": _NMAX}),
        _spec("single-mode", {"c": _NUMBER, "nmax": _NMAX}),
        _spec("power-law", {"a": _NUMBER, "e": _NUMBER, "nmax": _NMAX,
                            "phases": st.sampled_from(["0", "1", "true"])}),
        _spec("random", {"sup": _NUMBER, "nmax": _NMAX, "decay": _NUMBER})),
    st.one_of(_JUNK.map(lambda j: "file:" + j), _JUNK))
_WEIGHT = _mostly(st.just("trivial"),
                  _mostly(_spec("poly", {"a": _NUMBER, "cap": _NUMBER}),
                          _JUNK))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["spectrum", "reduce", "flow"]),
       potential=_POTENTIAL, weight=_WEIGHT,
       K=_mostly(st.sampled_from([16, 24, 32, 48]), st.integers(0, 15)),
       s=_mostly(st.sampled_from(["0", "-0.25"]), _NUMBER),
       t=_mostly(st.floats(-2.0, 2.0).map(repr), _NUMBER),
       seed=st.integers(0, 3))
def test_fuzz_cli_exit_codes(command, potential, weight, K, s, t, seed):
    # "--flag=value", so that values such as "-inf" reach the parser
    argv = [command, "--potential=" + potential, "--K=%d" % K, "--s=" + s,
            "--t=" + t, "--seed=%d" % seed, "--weight=" + weight]
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) in (0, 1, 2)
