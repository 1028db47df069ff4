"""End-to-end tests of the command-line interface: outputs, determinism,
config handling and exit codes.  Everything runs in-process through main()."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import types

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from hillkdv import cli
from hillkdv.cli import main
from hillkdv.galerkin import periodic_spectrum, trust_count
from hillkdv.operator import Potential
from hillkdv.sequences import FourierSeq
from hillkdv.reduction import find_roots, make_context

PI2 = math.pi ** 2


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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


def test_config_default_section_only(tmp_path):
    # a --config whose keys sit in [DEFAULT] alone, with no named section,
    # is read as if they were in one
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[DEFAULT]\npotential = single-mode:c=0.05\nk = 32\n")
    out = str(tmp_path / "o")
    assert main(["spectrum", "--config", str(cfgfile), "--out", out]) == 0
    obj = read_json(os.path.join(out, "spectrum.json"))
    assert obj["K"] == 32
    assert obj["gaps"][0][0] == pytest.approx(0.1, abs=1e-5)


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = single-mode:c=0.02\n")
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--config", str(cfgfile),
               "--potential", "single-mode:c=0.05", "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert float(rows[2][5]) == pytest.approx(0.1, abs=1e-5)


@pytest.mark.parametrize("command, solver", [("spectrum", "full_spectrum"),
                                             ("flow", "periodic_spectrum")])
def test_out_of_memory_exit_1(tmp_path, capsys, monkeypatch, command, solver):
    # a --K whose matrices cannot be allocated (10^7 asks for 182 TiB): one
    # error line, no traceback, nothing written
    import hillkdv.cli

    def no_memory(q, K):
        raise MemoryError("Unable to allocate 182. TiB for an array with "
                          "shape (5000001, 5000001) and data type int64")
    monkeypatch.setattr(hillkdv.cli, solver, no_memory)
    out = tmp_path / "o"
    assert main([command, "--K", "10000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


def test_address_space_limit_exit_1(tmp_path):
    # the same --K through sys.exit(main()) of python -m hillkdv.cli, in a
    # child whose address space is capped at 4 GB, so that numpy itself
    # fails to allocate: exit 1, one error line and nothing written
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 * 10 ** 9, 4 * 10 ** 9))
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "hillkdv.cli", "spectrum",
                           "--K", "10000000", "--out", str(out)],
                          capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert not out.exists()


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_matches_oracle(tmp_path):
    # a real q, and a one-sided complex q (q_{-2n} = 0, so every pair is
    # double): every row is ok and found by the root fixed point
    one_sided = tmp_path / "q1.json"
    one_sided.write_text(Potential.from_even_pairs(
        [(1, 0.05 + 0.03j), (2, 0.02 + 0.01j)]).seq.to_json())
    for i, potential in enumerate(["single-mode:c=0.05",
                                   "file:%s" % one_sided]):
        out = str(tmp_path / ("o%d" % i))
        rc = main(["reduce", "--potential", potential, "--out", out])
        assert rc == 0
        obj = read_json(os.path.join(out, "reduce.json"))
        assert obj["worst_relative_mismatch"] < 1e-6
        assert len(obj["rows"]) == 8
        assert all(r["status"] == "ok" for r in obj["rows"])
        for r in obj["rows"]:
            assert r["converged"] is True
            assert r["method"] == "fixed-point"
            assert r["terms"] >= 1
        rows = read_csv(os.path.join(out, "reduce.csv"))
        assert rows[1] == ["n", "status", "xi_1_re", "xi_2_re", "gap",
                           "contraction_bound", "method", "terms",
                           "converged", "oracle_mismatch"]
        assert all(row[6:9] == ["fixed-point", str(r["terms"]), "True"]
                   for row, r in zip(rows[2:], obj["rows"]))


def test_reduce_mismatch_exit_1(tmp_path, capsys):
    # --K 16 caps the oracle at oracle_K = 16, far below n_hi + H = 6 + 128,
    # so the oracle's own truncation moves modes 2 and 3 past 1e-6 n^2 pi^2:
    # both files are written with those rows marked, then one error line
    # names the modes and exit is 1
    out = str(tmp_path / "o")
    rc = main(["reduce", "--potential", "power-law:a=0.1,e=0,nmax=64",
               "--K", "16", "--out", out])
    assert rc == 1
    obj = read_json(os.path.join(out, "reduce.json"))
    assert obj["oracle_K"] == 16
    bad = [r["n"] for r in obj["rows"] if r["status"] == "mismatch"]
    assert bad == [2, 3]
    rows = read_csv(os.path.join(out, "reduce.csv"))
    assert [int(r[0]) for r in rows[2:] if r[1] == "mismatch"] == bad
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: modes [2, 3] differ from the Galerkin "
                             "oracle at oracle_K = 16")


def test_reduce_rows_equal_find_roots(tmp_path):
    # the rows of one batched reduce are find_roots at each n alone, for a
    # complex potential with non-conjugate pairs
    q = Potential.from_even_pairs([(-2, 0.02 - 0.01j), (-1, 0.05 + 0.03j),
                                   (1, 0.01 - 0.04j), (2, 0.03 + 0.02j)])
    (tmp_path / "q.json").write_text(q.seq.to_json())
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = file:%s\nk = 48\nn_lo = 1\n"
                       "n_hi = 12\n" % (tmp_path / "q.json"))
    out = str(tmp_path / "o")
    assert main(["reduce", "--config", str(cfgfile), "--out", out]) == 0
    rows = read_json(os.path.join(out, "reduce.json"))["rows"]
    ctx = make_context(q)
    assert [r["n"] for r in rows] == list(range(1, 13)) and ctx.n_s == 1
    for r in rows:
        res = find_roots(ctx, r["n"])
        for key, z in (("a_n", res.a_n), ("b_n", res.b_n),
                       ("b_neg_n", res.b_neg_n), ("alpha_n", res.alpha_n),
                       ("xi_1", res.xi_1), ("xi_2", res.xi_2)):
            assert r[key] == [z.real, z.imag], key
        assert (r["gap"], r["method"], r["terms"], r["converged"]) == (
            res.gap_estimate, res.method, res.neumann_terms_used, res.converged)
    assert any(r["xi_1"][1] != 0.0 for r in rows)


def reduce_with_failing_fixed_point(tmp_path, capsys, monkeypatch, fails):
    """Run reduce on single-mode:c=0.05 with every fixed point (n, sign)
    for which fails(sign) holds raising RootError, and check that it
    reports that error as one error line, with no traceback, and writes
    nothing."""
    import hillkdv.reduction as red
    real_fixed_points = red._fixed_points

    def patched(plan, modes, signs, *args):
        for i, sign in zip(modes, signs):
            if fails(sign):
                raise red.RootError("fixed point not contracting at n=%d"
                                    % plan.ns[i])
        return real_fixed_points(plan, modes, signs, *args)
    monkeypatch.setattr(red, "_fixed_points", patched)
    out = tmp_path / "o"
    assert main(["reduce", "--potential", "single-mode:c=0.05",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fixed point not contracting at n=")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_reduce_root_failure_exit_1(tmp_path, capsys, monkeypatch):
    # the - root's iteration fails at every mode
    reduce_with_failing_fixed_point(tmp_path, capsys, monkeypatch,
                                    lambda sign: sign < 0)


def test_reduce_alpha_failure_exit_1(tmp_path, capsys, monkeypatch):
    # alpha_n's iteration fails at every mode
    reduce_with_failing_fixed_point(tmp_path, capsys, monkeypatch,
                                    lambda sign: sign == 0)


def test_reduce_weight_infinite_in_plan_exit_1(tmp_path, capsys):
    # e^{1.38 |k|} is finite on q's support, but the plan of n = 258..260
    # reaches |k| = 2n + 2 = 522, where the weight is inf: one error line
    # naming that |k|, no numpy warning and no output directory
    cfg = tmp_path / "w.ini"
    cfg.write_text("[run]\npotential = single-mode:c=0.05\n"
                   "weight = poly:a=200,cap=1.38\nk = 600\n"
                   "n_lo = 258\nn_hi = 260\n")
    out = tmp_path / "o"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: weight is not finite on |k| <= 522"]
    assert not out.exists()


def test_reduce_weight_infinite_on_support_exit_1(tmp_path, capsys):
    # 129^150 is inf at |k| = 128, the top of q's support: the norm of q
    # names it, rather than a threshold that reads inf
    out = tmp_path / "o"
    assert main(["reduce", "--potential", "power-law:nmax=64", "--weight",
                 "poly:a=150", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: weight is not finite on |k| <= 128"]
    assert not out.exists()


def test_reduce_weight_never_evaluated_exit_0(tmp_path):
    # poly:a=150,cap=5 is inf from |k| = 142, but the zero potential's
    # reduction evaluates the weight nowhere
    assert main(["reduce", "--weight", "poly:a=150,cap=5",
                 "--out", str(tmp_path / "o")]) == 0


def test_reduce_that_raises_solves_no_oracle(tmp_path, monkeypatch, capsys):
    # the reduction runs before the Galerkin oracle, so the weight error of
    # the config above exits 1 before periodic_spectrum is called
    calls = []

    def counted(q, K):
        calls.append(K)
        return periodic_spectrum(q, K)

    monkeypatch.setattr(cli, "periodic_spectrum", counted)
    cfg = tmp_path / "w.ini"
    cfg.write_text("[run]\npotential = single-mode:c=0.05\n"
                   "weight = poly:a=200,cap=1.38\nk = 600\n"
                   "n_lo = 258\nn_hi = 260\n")
    assert main(["reduce", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: weight is not finite")
    assert calls == []
    assert main(["reduce", "--out", str(tmp_path / "z")]) == 0
    assert len(calls) == 1


def _low_mode_potential(kind, rng):
    """The low_mode benchmark's families: |q_2n| = 0.05 <n>^{-1/2} with seeded
    phases, conjugate at -n (smooth) or independent (complex), and the
    rough power law |q_2n| = 0.1 <n>^{-1/4} at s = -1/4."""
    if kind == "rough":
        return Potential.power_law(0.1, -0.25, 16, s=-0.25, rng=rng)
    n_max = 26 if kind == "smooth" else 16
    ns = np.arange(1, n_max + 1)
    mags = 0.05 * (1.0 + ns) ** -0.5
    plus = mags * np.exp(2j * np.pi * rng.uniform(size=n_max))
    minus = np.conj(plus) if kind == "smooth" else \
        mags * np.exp(2j * np.pi * rng.uniform(size=n_max))
    return Potential.from_even_pairs(list(zip(ns, plus)) + list(zip(-ns, minus)),
                                     n_max=n_max, real=kind == "smooth")


def _pair(spec, n):
    return sorted([spec.lam_minus(n), spec.lam_plus(n)],
                  key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("kind, K, modes", [
    ("smooth", 128, 21), ("rough", 256, 40), ("complex", 256, 40)])
def test_reduce_oracle_size(tmp_path, kind, K, modes):
    # the oracle is solved at min(K, max(K', n_hi + H)), K' the least size
    # >= 16 whose trust count reaches n_hi: every row is still checked, and
    # the pairs at that size are those at K to 1e-10 n^2 pi^2
    q = _low_mode_potential(kind, np.random.default_rng(1))
    n_lo = make_context(q).n_s
    n_hi = n_lo + modes - 1
    (tmp_path / "q.json").write_text(q.seq.to_json())
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = file:%s\ns = %r\nk = %d\n"
                       "n_lo = %d\nn_hi = %d\n"
                       % (tmp_path / "q.json", q.s, K, n_lo, n_hi))
    out = str(tmp_path / "o")
    assert main(["reduce", "--config", str(cfgfile), "--out", out]) == 0
    obj = read_json(os.path.join(out, "reduce.json"))
    K_trust = min(k for k in range(16, K + 1) if trust_count(k) >= n_hi)
    K_o = obj["oracle_K"]
    assert K_o == min(K, max(K_trust, n_hi + q.half_range)) < K
    assert [r["n"] for r in obj["rows"]] == list(range(n_lo, n_hi + 1))
    assert all("max_mismatch" in r for r in obj["rows"])
    small, full = periodic_spectrum(q, K_o), periodic_spectrum(q, K)
    for n in range(n_lo, n_hi + 1):
        moved = max(abs(a - b) for a, b in zip(_pair(small, n), _pair(full, n)))
        assert moved <= 1e-10 * n * n * PI2, n


def test_reduce_oracle_at_K_when_couplings_pass_it(tmp_path):
    # a power law over the full band has H = 64, so n_hi + H > K = 48: the
    # oracle is solved at K, and its columns are those of the spectrum at K
    out = str(tmp_path / "o")
    assert main(["reduce", "--potential", "power-law:a=0.1,e=-0.25,nmax=32",
                 "--K", "48", "--out", out]) == 0
    obj = read_json(os.path.join(out, "reduce.json"))
    assert obj["oracle_K"] == 48 and len(obj["rows"]) == 8
    spec = periodic_spectrum(Potential.power_law(0.1, -0.25, 32), 48)
    for r in obj["rows"]:
        lam = _pair(spec, r["n"])
        xi = sorted([complex(*r["xi_1"]), complex(*r["xi_2"])],
                    key=lambda z: (z.real, z.imag))
        assert r["oracle_gap"] == abs(lam[1] - lam[0])
        assert r["max_mismatch"] == max(abs(xi[0] - lam[0]),
                                        abs(xi[1] - lam[1]))


# q = 0.02i cos 2 pi x: the two roots of mode 1 are x -+ 0.01i with equal
# real parts, so any order by (Re, Im) of a pair reads rounding noise
IMAGINARY_MATHIEU = '{"half_range": 2, "coeffs": [[-2, 0.0, 0.01], ' \
    '[2, 0.0, 0.01]]}'


def test_reduce_pairs_compared_as_sets(tmp_path):
    # the reduction and the oracle agree to rounding, whichever root each
    # calls lambda_1^-
    (tmp_path / "q.json").write_text(IMAGINARY_MATHIEU)
    out = tmp_path / "o"
    assert main(["reduce", "--potential", "file:%s" % (tmp_path / "q.json"),
                 "--out", str(out)]) == 0
    rows = read_json(out / "reduce.json")["rows"]
    assert rows and all(r["status"] == "ok" for r in rows)
    assert rows[0]["n"] == 1 and rows[0]["max_mismatch"] <= 1e-12


def test_reduce_pairing_ignores_an_ulp_of_real_part(tmp_path, monkeypatch):
    # an oracle whose lambda_1^- lies one ulp right of lambda_1^+ in Re: an
    # order by (Re, Im) pairs each root with the other's conjugate (off by
    # the gap, 0.02), the comparison as sets finds them an ulp apart
    (tmp_path / "q.json").write_text(IMAGINARY_MATHIEU)
    q = Potential(FourierSeq.from_json(IMAGINARY_MATHIEU))
    res = find_roots(make_context(q), 1)
    x, y = res.xi_1.real, abs(res.xi_1.imag)
    assert res.xi_2.real == x and y > 0.005
    lm, lp = complex(np.nextafter(x, np.inf), -y), complex(x, y)
    monkeypatch.setattr(cli, "periodic_spectrum", lambda q, K: (
        types.SimpleNamespace(trust=1, lam_minus=lambda n: lm,
                              lam_plus=lambda n: lp)))
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = file:%s\nn_hi = 1\n"
                       % (tmp_path / "q.json"))
    out = tmp_path / "o"
    assert main(["reduce", "--config", str(cfgfile), "--out", str(out)]) == 0
    row, = read_json(out / "reduce.json")["rows"]
    assert row["status"] == "ok" and row["max_mismatch"] < 1e-14


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


@pytest.mark.parametrize("flags", [[], ["--potential", "single-mode:c=0"]])
def test_reduce_zero_support(tmp_path, flags):
    # the default potential (zero) and a zero single mode have no taps: every
    # Neumann level is empty, so each row's sum stops after its first term
    out = str(tmp_path / "o")
    assert main(["reduce", *flags, "--out", out]) == 0
    rows = read_json(os.path.join(out, "reduce.json"))["rows"]
    assert rows
    for r in rows:
        assert (r["status"], r["gap"], r["terms"]) == ("ok", 0.0, 1)


def test_reduce_empty_range_exit_2(tmp_path, capsys):
    # n_s = 93 at s = -1/4 lies past the trust count of K = 64, so the
    # default range n_s .. min(n_s + 7, trust) is empty
    out = tmp_path / "o"
    rc = main(["reduce", "--potential", "single-mode:c=0.2", "--s", "-0.25",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: no modes to reduce")
    assert "n_s = 93" in err and "K = 64" in err
    assert not out.exists()


@pytest.mark.parametrize("n_lo", [0, -2])
def test_reduce_modes_below_one_exit_2(tmp_path, capsys, n_lo):
    # modes n <= 0 have no reduction, so the config is refused before
    # anything is written
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\npotential = single-mode:c=0.05\nk = 32\n"
                       "n_lo = %d\nn_hi = 2\n" % n_lo)
    out = tmp_path / "o"
    rc = main(["reduce", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: n_lo must be >= 1")
    assert not out.exists()


def test_reduce_threshold_beyond_float_range(tmp_path, capsys):
    # ||q|| ~ 1e152 is finite, but n_s ~ (2 c_s ||q||)^4 is not
    out = tmp_path / "o"
    rc = main(["reduce", "--potential", "power-law:nmax=8,a=1e150,e=1.5",
               "--s", "-0.25", "--K", "32", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: threshold n_s exceeds the float range")
    assert not out.exists()


def test_reduce_near_minus_half_writes_null_thresholds(tmp_path):
    # at s = -0.49, N_ms^0.01 >= 32 c_s' m and M_ms's bound are past the
    # float range, but the roots need only n_s = 1: reduce checks them and
    # writes N_ms and M_ms as null
    out = tmp_path / "o"
    assert main(["reduce", "--s", "-0.49", "--out", str(out)]) == 0
    obj = read_json(out / "reduce.json")
    assert obj["N_ms"] is None and obj["M_ms"] is None and obj["n_s"] == 1
    assert obj["rows"] and all(r["status"] == "ok" for r in obj["rows"])


def test_reduce_thresholds_past_2_53_as_floats(tmp_path):
    # N_ms and M_ms past 2^53 are written as floats, whose digits are all
    # that c_s' determines; at or below 2^53 they stay exact integers
    out = tmp_path / "o"
    assert main(["reduce", "--s", "-0.45", "--potential",
                 "single-mode:c=0.01", "--out", str(out)]) == 0
    obj = read_json(out / "reduce.json")
    assert obj["N_ms"] == 6.482274524499671e+63
    assert type(obj["N_ms"]) is float and type(obj["M_ms"]) is float
    assert '"N_ms": 6.482274524499671e+63' in (out / "reduce.json").read_text()
    assert main(["reduce", "--out", str(out)]) == 0
    obj = read_json(out / "reduce.json")
    assert (obj["N_ms"], obj["M_ms"]) == (52061, 832961)
    assert type(obj["N_ms"]) is int and type(obj["M_ms"]) is int


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
    # every reported number is finite; the flow keeps |z_n| by construction,
    # so no per-mode defect is reported
    assert obj["action_invariance"] is True
    assert "action_invariance_defect" not in obj
    rows = read_csv(os.path.join(out, "flow.csv"))
    assert rows[1] == ["n", "action", "frequency", "amp_t0", "amp_t1"]
    assert float(rows[2][3]) == pytest.approx(float(rows[2][4]), abs=1e-12)


def test_flow_complex_potential_exit_1(tmp_path, capsys):
    # q_2 = 0.05, q_{-2} = 0.05i: gamma_1 ~ 2 sqrt(q_2 q_{-2}) has an
    # imaginary part of about 0.07, and actions need real gaps
    from hillkdv.sequences import FourierSeq
    seq = FourierSeq.from_pairs([(2, 0.05), (-2, 0.05j)], K=4)
    pf = tmp_path / "q.json"
    pf.write_text(seq.to_json())
    out = tmp_path / "o"
    rc = main(["flow", "--potential", "file:%s" % pf, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: complex gap lengths unsupported")
    assert not out.exists()


def test_flow_nan_phase_reports_not_finite(tmp_path, capsys):
    # omega_n t overflows at t = 1e308, so every flowed mode is NaN: a
    # reported number is not finite, and flow exits 1 with one error line
    # and no numpy warning
    out = str(tmp_path / "o")
    rc = main(["flow", "--potential", "single-mode:c=0.05", "--K", "16",
               "--t", "1e308", "--out", out])
    assert rc == 1
    assert read_json(os.path.join(out, "flow.json"))["action_invariance"] \
        is False
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command, potential", [
    ("spectrum", "single-mode:c=0.05"),
    ("spectrum", "file"),
    ("flow", "random:sup=0.1,nmax=16"),
])
def test_csv_numbers_equal_json(tmp_path, command, potential):
    # every number in the CSV, read back as float(text), is the value the
    # JSON holds: both files carry the same doubles in round-trip text
    if potential == "file":  # complex: q_{-2} != conj(q_2)
        pf = tmp_path / "qc.json"
        pf.write_text(json.dumps({"half_range": 4, "coeffs": [
            [-4, 0.02, -0.01], [-2, 0.05, 0.03], [2, 0.01, -0.04],
            [4, 0.03, 0.02]]}))
        potential = "file:%s" % pf
    out = str(tmp_path / "o")
    assert main([command, "--potential", potential, "--out", out]) == 0
    obj = read_json(os.path.join(out, command + ".json"))
    rows = read_csv(os.path.join(out, command + ".csv"))[2:]
    if command == "spectrum":
        per, mu, tau = obj["periodic"], obj["dirichlet"], obj["midpoints"]
        assert len(rows) == obj["trust_count"] > 0
        assert any(v[1] != 0.0 for v in per) == ("file" in potential)
        want = [[n, *per[2 * n - 1], *per[2 * n], obj["gaps"][n - 1][0],
                 tau[n - 1][0], mu[n - 1][0], tau[n - 1][0] - mu[n - 1][0]]
                for n in range(1, len(rows) + 1)]
    else:
        I, om = obj["actions_from_gaps"], obj["frequencies"]
        t0, t1 = ({m[0]: abs(complex(m[1], m[2])) for m in obj[key]}
                  for key in ("modes_t0", "modes_t1"))
        want = [[n, I[n - 1] if n <= len(I) else "",
                 om[n - 1] if n <= len(om) else "", t0[n], t1[n]]
                for n in range(1, len(rows) + 1)]
        assert len(rows) == max(t0) and any(r[1] for r in rows)
    got = [[int(r[0])] + [float(c) if c else c for c in r[1:]] for r in rows]
    assert got == want


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


def test_verify_all_suites(tmp_path):
    # the sandwich suite checks the gap sandwich at n = M_ms of the s = 0
    # ball of radius 1
    out = str(tmp_path / "o")
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", out]) == 0
    summary = read_json(os.path.join(out, "verify.json"))
    assert (summary["suites_run"], summary["suites_passed"]) == (4, 4)
    sandwich = [r for r in summary["results"] if r["suite"] == "sandwich"]
    assert sandwich[0]["checked"] == [
        {"n": 832961, "condition_met": True, "holds": True}]


def test_verify_failed_suite_exit_1(tmp_path, capsys, monkeypatch):
    # a suite that fails still gets verify.json written, then one error line
    # names it and exit is 1
    monkeypatch.setattr(cli, "_suite_decay",
                        lambda cfg, rng: {"suite": "decay", "pass": False})
    out = str(tmp_path / "o")
    assert main(["verify", "--suite", "decay", "--out", out]) == 1
    summary = read_json(os.path.join(out, "verify.json"))
    assert (summary["suites_run"], summary["suites_passed"]) == (1, 0)
    assert capsys.readouterr().err == "error: failed suites: decay\n"


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
    ["reduce", "--potential", "zero", "--s", "0.3"],
    ["reduce", "--potential", "zero", "--weight", "poly:a=x"],
    ["--potential", "file:ODD"],
    ["--potential", "single-mode:c=nan"],
    ["reduce", "--potential", "zero", "--weight", "poly:a=nan"],
    ["reduce", "--potential", "zero", "--weight", "poly:a=-1"],
    ["flow", "--potential", "zero", "--t", "inf"],
    ["reduce", "--potential", "power-law:nmax=8,a=1e308,e=1.5", "--s", "-0.25"],
    ["--potential", "random:sup=-1e308,nmax=1"],
    ["--potential", "zero", "--seed", "-1"],
    ["reduce", "--potential", "zero", "--seed", "-1"],
    ["verify", "--suite", "sandwich", "--seed", "-1"],
    ["reduce", "--potential", "zero", "--weight", "poly:a=1,cap=0"],
    ["--potential", "power-law:a"],
    ["reduce", "--potential", "zero", "--weight", "exp:a=1"],
])
def test_bad_config_exit_2(tmp_path, capsys, flags):
    # a potential file holding {}, K below 16, a negative and a zero nmax,
    # non-numeric nmax, c and weight exponent, s outside (-1/2, 0], a file
    # with odd modes, a NaN c and weight exponent, a negative weight
    # exponent, an infinite time, an infinite coefficient, a finite one
    # whose l1 norm squared overflows, a negative seed (for the seeded
    # potentials and for the sandwich suite), a zero weight cap, a spec item
    # without "=" and an unknown weight spec; flags without a subcommand run
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


def test_power_law_phases_spellings(tmp_path, capsys):
    # phases reads 0 or false (no phases, as when absent) and 1 or true
    # (seeded phases); any other text is a config error that names the field
    # and writes nothing
    spec = "power-law:a=0.1,e=-0.25,nmax=8"
    rows = {}
    for phases in ("", ",phases=0", ",phases=false", ",phases=1",
                   ",phases=true"):
        out = str(tmp_path / ("o" + phases))
        assert main(["spectrum", "--potential", spec + phases,
                     "--out", out]) == 0
        rows[phases] = read_csv(os.path.join(out, "spectrum.csv"))[1:]
    assert rows[""] == rows[",phases=0"] == rows[",phases=false"]
    assert rows[",phases=1"] == rows[",phases=true"]
    # lambda_1^- without and with phases at seed 0
    assert float(rows[""][1][1]) == pytest.approx(9.785512586917498, rel=1e-12)
    assert float(rows[",phases=1"][1][1]) == pytest.approx(9.785442232030721,
                                                           rel=1e-12)
    for bad in ("yes", "True", "2"):
        out = tmp_path / ("bad-" + bad)
        assert main(["spectrum", "--potential", spec + ",phases=" + bad,
                     "--out", str(out)]) == 2
        assert "'phases'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "flow", "verify"])
def test_unusable_out_exit_2(tmp_path, capsys, monkeypatch, command):
    # an empty --out (no directory to create) and an --out naming an
    # existing file: a config error, no traceback, nothing written
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    flags = {"spectrum": ["--potential", "zero"],
             "flow": ["--potential", "zero", "--t", "0.01"],
             "verify": ["--suite", "airy-demo"]}[command]
    for out in ("", str(taken)):
        rc = main([command, "--out", out] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert taken.read_text() == ""


def test_dt_flag_rejected(tmp_path):
    # no subcommand has a time step to set
    assert main(["flow", "--potential", "zero", "--dt", "1e-3",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, flag", [
    ("verify", "--potential=zero"), ("verify", "--K=999"), ("verify", "--s=0"),
    ("verify", "--weight=trivial"), ("verify", "--t=5"),
    ("spectrum", "--t=7"), ("spectrum", "--suite=decay"),
    ("reduce", "--t=7"), ("reduce", "--suite=decay"),
    ("flow", "--suite=decay"), ("spectrum", "--s=0"),
    ("spectrum", "--weight=poly:a=2"),
    ("flow", "--s=0"), ("flow", "--weight=poly:a=1"), ("spectrum", "--se=1")])
def test_unread_flag_rejected(tmp_path, command, flag):
    # a subcommand takes only the flags it reads: one it would ignore exits
    # 2 and writes nothing, rather than changing only the config hash (the
    # spectrum and the asymptotic flow do not depend on s or the weight);
    # no flag is taken for one it abbreviates, so --s is not --seed
    out = tmp_path / "o"
    assert main([command, flag, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, lines, unread", [
    ("spectrum", "suite = nope\nt = 5\nbogus = 1\n", "'bogus', 'suite', 't'"),
    ("flow", "n_lo = 1\n", "'n_lo'"),
    ("verify", "k = 64\ns = 0\n", "'k', 's'"), ("spectrum", "s = 0\n", "'s'"),
    ("flow", "weight = trivial\n", "'weight'")])
def test_unread_config_key_rejected(tmp_path, capsys, command, lines, unread):
    # a --config key the subcommand does not read exits 2, named, and writes
    # nothing, rather than changing only the config hash
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\n%s" % lines)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert unread in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [b"[run]\npotential = single-mode:c=\xff\n",
                                  b"[run]\npotential = file:a%b.json\n"])
def test_unparsable_config_exit_2(tmp_path, capsys, text):
    # a file that is not UTF-8, and a '%' that INI interpolation rejects
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_bytes(text)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_flags_are_the_keys_read():
    # each subcommand's flags are its keys in cli.KEYS, --K for k, and none
    # for the --config-only n_lo and n_hi
    from hillkdv.cli import KEYS, build_parser
    model = {"potential", "k", "seed", "out"}
    expected = {"spectrum": model, "reduce": model | {"weight", "s"},
                "flow": model | {"t"}, "verify": {"suite", "seed", "out"}}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, keys in KEYS.items():
        flags = {a.dest: a.option_strings
                 for a in sub.choices[command]._actions
                 if a.dest not in ("help", "config")}
        assert set(flags) == set(keys) - {"n_lo", "n_hi"} == expected[command]
        assert all(opts == ["--K" if key == "k" else "--" + key]
                   for key, opts in flags.items())


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh process, in which every import of scipy fails (this one has
    # imported scipy for the oracles): each subcommand, on real and complex
    # potentials, and a real potential's Riesz projector need numpy alone
    pf = tmp_path / "q.json"
    pf.write_text('{"coeffs": [[-2, 0.05, 0.02], [2, 0.05, -0.01]], '
                  '"half_range": 2}')
    runs = [["verify"], ["spectrum", "--potential", "random:sup=0.1,nmax=16"],
            ["spectrum", "--potential", "file:%s" % pf],
            ["reduce", "--potential", "power-law:a=0.1,e=-0.25,nmax=16",
             "--s", "-0.25"], ["flow"]]
    runs = [argv + ["--out", str(tmp_path / str(i))]
            for i, argv in enumerate(runs)]
    code = "\n".join([
        "import json, sys",
        "sys.modules['scipy'] = None",
        "from hillkdv import cli, galerkin, operator",
        "rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]",
        "galerkin.riesz_projector(operator.Potential.single_mode(0.05), 2, 32)",
        "print(json.dumps([rcs, sorted(m for m, v in sys.modules.items()",
        "                              if m.split('.')[0] == 'scipy' and v)]))"])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[0] * len(runs), []]


def test_missing_config_file(tmp_path):
    rc = main(["spectrum", "--config", str(tmp_path / "missing.ini"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_command_exit_2():
    assert main(["frobnicate"]) == 2


def test_potential_file_roundtrip(tmp_path):
    from hillkdv.sequences import FourierSeq
    seq = FourierSeq.from_pairs([(2, 0.05), (-2, 0.05)], K=4)
    pf = tmp_path / "q.json"
    pf.write_text(seq.to_json())
    out = str(tmp_path / "o")
    rc = main(["spectrum", "--potential", "file:%s" % pf, "--K", "64",
               "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert float(rows[2][5]) == pytest.approx(0.1, abs=1e-5)


def test_potential_file_with_old_flag_keys(tmp_path):
    # files that also carry the real, zero_mean and one_periodic keys of
    # older versions give the same spectrum bytes as files without them; the
    # run reads both through one path, so the config hashes agree.  The
    # potential is real (q_{-2} = conj(q_2)) whether or not a key says so,
    # so its periodic eigenvalues have imaginary part exactly 0
    body = ('"coeffs": [[-2, 0.05, -0.01], [2, 0.05, 0.01]], '
            '"half_range": 4')
    texts = {"new": "{%s}" % body,
             "old": '{%s, "one_periodic": true, "real": true, '
                    '"zero_mean": true}' % body}
    pf = tmp_path / "q.json"
    outs = {}
    for name, text in texts.items():
        pf.write_text(text)
        out = tmp_path / name
        rc = main(["spectrum", "--potential", "file:%s" % pf, "--K", "32",
                   "--out", str(out)])
        assert rc == 0
        outs[name] = [(out / f).read_bytes()
                      for f in ("spectrum.json", "spectrum.csv")]
        periodic = read_json(str(out / "spectrum.json"))["periodic"]
        assert all(im == 0.0 for _, im in periodic)
    assert outs["old"] == outs["new"]


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


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["spectrum", "reduce", "flow"]),
       potential=_POTENTIAL, weight=_WEIGHT,
       K=_mostly(st.sampled_from([16, 24, 32, 48]), st.integers(0, 15)),
       s=_mostly(st.sampled_from(["0", "-0.25"]), _NUMBER),
       t=_mostly(st.floats(-2.0, 2.0).map(repr), _NUMBER),
       seed=st.integers(0, 3))
def test_fuzz_cli_exit_codes(command, potential, weight, K, s, t, seed):
    # "--flag=value", so that values such as "-inf" reach the parser
    argv = [command, "--potential=" + potential, "--K=%d" % K,
            "--seed=%d" % seed]
    argv += {"reduce": ["--s=" + s, "--weight=" + weight],
             "flow": ["--t=" + t]}.get(command, [])
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) in (0, 1, 2)


# the same values as flags, in canonical spelling, and in a --config file,
# spelled otherwise
_SPELLED = {
    "k": st.sampled_from([16, 24, 32]).flatmap(lambda v: st.tuples(
        st.just(str(v)), st.sampled_from(["0%d" % v, "+%d" % v, "00%d" % v]))),
    "s": st.sampled_from([("0.0", "0"), ("0.0", ".0"), ("-0.25", "-.25"),
                          ("-0.25", "-2.5e-1"), ("-0.1", "-.100")]),
    "seed": st.sampled_from([0, 1, 2]).flatmap(lambda v: st.tuples(
        st.just(str(v)), st.sampled_from(["0%d" % v, "+%d" % v]))),
    "t": st.sampled_from([("0.5", ".5"), ("0.5", "5e-1"), ("1.0", "1")])}


@settings(max_examples=12, deadline=None)
@given(command=st.sampled_from(["spectrum", "reduce", "flow"]),
       potential=st.sampled_from(["single-mode:c=0.05",
                                  "random:sup=0.1,nmax=4",
                                  "power-law:a=0.05,e=-0.25,nmax=8"]),
       values=st.fixed_dictionaries(_SPELLED))
def test_flags_and_config_file_agree(command, potential, values):
    # outputs are byte-identical, config_hash included: the hash covers the
    # converted values, not their spelling
    keys = ["k", "seed"] + {"reduce": ["s"], "flow": ["t"]}.get(command, [])
    flags = ["--potential=" + potential] + [
        "--%s=%s" % ("K" if k == "k" else k, values[k][0]) for k in keys]
    lines = ["potential = " + potential] + [
        "%s = %s" % (k, values[k][1]) for k in keys]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = os.path.join(tmp, "run.ini")
        with open(cfgfile, "w", encoding="utf-8") as fh:
            fh.write("[run]\n" + "\n".join(lines) + "\n")
        for name, args in (("flags", flags), ("file", ["--config", cfgfile])):
            out = os.path.join(tmp, name)
            rc = main([command, "--out", out] + args)
            files = sorted(os.listdir(out)) if os.path.isdir(out) else []
            outputs.append((rc, files, [read_bytes(os.path.join(out, f))
                                        for f in files]))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]  # the run wrote its outputs
