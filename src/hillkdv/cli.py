"""Command-line entry point.

Subcommands: spectrum, reduce, flow, verify.  Configuration comes from an
INI-style flat key=value file (sections are merged in file order) with
command-line flags taking precedence.  Outputs are UTF-8 JSON with sorted
keys and RFC-4180 CSV; every file embeds the resolved-config hash and the
package version, so a fixed config + seed reproduces outputs byte for byte
at a fixed BLAS thread count.  LAPACK's eigenvalues (spectrum, flow, verify,
reduce's oracle columns) can change in the last digits with it; the
reduction's own numbers use no BLAS and do not.

The verify suites run the library code of acceptance criteria 7 (decay), 8
(isospectral), 10 (airy-demo) and 6 (sandwich) at their own sizes.

Exit codes: 0 pass, 1 assertion failure, 2 usage/config error.
"""

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .sequences import FourierSeq, Weight, WeightError, cap_weight, \
    InvalidSequenceError
from .operator import Potential
from .galerkin import full_spectrum, periodic_spectrum, gaps_and_midpoints, \
    verify_decay
from .reduction import make_context, find_roots_batch, \
    isolated_mode_sandwich, ThresholdError
from .birkhoff import linearized_birkhoff, actions_from_gaps, frequencies, \
    flow as birkhoff_flow, torus_membership
from .pde import airy_distances, isospectral_check, potential_to_pde_state


class ConfigError(ValueError):
    pass


def parse_kv(body, field_names, spec_name):
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError("malformed %s parameter %r (expected key=value)"
                              % (spec_name, item))
        k, v = item.split("=", 1)
        k = k.strip()
        if k not in field_names:
            raise ConfigError("unknown %s field %r" % (spec_name, k))
        out[k] = v.strip()
    return out


def parse_weight(spec):
    if spec in (None, "", "trivial"):
        return None
    name, _, body = spec.partition(":")
    if name != "poly":
        raise ConfigError("unknown weight spec %r" % spec)
    kv = parse_kv(body, {"a", "cap"}, "weight")
    try:
        w = Weight.polynomial(get_float(kv, "a", 1.0))
        if "cap" in kv:
            w = cap_weight(w, get_float(kv, "cap"))
    except WeightError as exc:  # a < 0, cap <= 0, not submultiplicative
        raise ConfigError(str(exc))
    return w


def _nmax(kv, default):
    n_max = get_int(kv, "nmax", default)
    if n_max < 1:
        raise ConfigError("potential nmax must be >= 1, got %d" % n_max)
    return n_max


def parse_potential(spec, s, weight, rng):
    if spec in (None, ""):
        raise ConfigError("missing potential spec")
    name, _, body = spec.partition(":")
    if name == "zero":
        kv = parse_kv(body, {"nmax"}, "potential")
        return Potential.zero(_nmax(kv, 8), s=s, weight=weight)
    if name == "single-mode":
        kv = parse_kv(body, {"c", "nmax"}, "potential")
        return Potential.single_mode(get_float(kv, "c", 0.05),
                                     n_max=_nmax(kv, 1),
                                     s=s, weight=weight)
    if name == "power-law":
        kv = parse_kv(body, {"a", "e", "nmax", "phases"}, "potential")
        use_rng = rng if kv.get("phases", "0") in ("1", "true") else None
        return Potential.power_law(get_float(kv, "a", 0.1),
                                   get_float(kv, "e", -0.25),
                                   _nmax(kv, 32),
                                   s=s, weight=weight, rng=use_rng)
    if name == "random":
        kv = parse_kv(body, {"sup", "nmax", "decay"}, "potential")
        return Potential.random_real(rng, _nmax(kv, 16),
                                     sup=get_float(kv, "sup", 0.1),
                                     decay=get_float(kv, "decay", 0.0),
                                     s=s, weight=weight)
    if name == "file":
        try:
            with open(body, "r", encoding="utf-8") as fh:
                seq = FourierSeq.from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read potential file %r: %s" % (body, exc))
        return Potential(seq, s=s, weight=weight)
    raise ConfigError("unknown potential spec %r" % spec)


def load_config(args):
    cfg = {}
    if args.config:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(args.config)
        except configparser.Error as exc:
            raise ConfigError("config parse error: %s" % exc)
        if not read:
            raise ConfigError("config file %r not found" % args.config)
        for section in parser.sections():
            for k, v in parser.items(section):
                cfg[k] = v
        for k, v in parser.defaults().items():
            cfg.setdefault(k, v)
    for key in ("potential", "weight", "suite", "out", "k", "s", "t", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(val)
    cfg.setdefault("out", "out")
    cfg.setdefault("seed", "0")
    cfg.setdefault("s", "0.0")
    cfg.setdefault("k", "64")
    for key in ("s", "t"):  # whether or not the subcommand reads them
        if key in cfg:
            get_float(cfg, key)
    if get_int(cfg, "seed") < 0:
        raise ConfigError("seed must be >= 0, got %s" % cfg["seed"])
    return cfg


def config_hash(cfg):
    # the output directory is not part of the scientific configuration; a
    # fixed config + seed must produce identical bytes wherever it is written
    keyed = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(keyed, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _get(cfg, key, default, conv, kind):
    if key not in cfg:
        if default is None:
            raise ConfigError("missing config field %r" % key)
        return default
    try:
        return conv(cfg[key])
    except ValueError:
        raise ConfigError("config field %r is not %s: %r" % (key, kind, cfg[key]))


def _finite_float(text):
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(text)
    return val


def get_float(cfg, key, default=None):
    return _get(cfg, key, default, _finite_float, "a finite number")


def get_int(cfg, key, default=None):
    return _get(cfg, key, default, int, "an integer")


def _meta(cfg):
    return {"config_hash": config_hash(cfg), "version": __version__}


def _open_out(path, newline):
    """Open an output file for writing, creating --out at the first output;
    an empty --out or one through an existing file is a config error."""
    out, name = os.path.split(path)
    try:
        os.makedirs(out, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError("cannot write %s into --out %r: %s" % (name, out, exc))


def write_json(path, obj, cfg):
    obj = dict(obj)
    obj["meta"] = _meta(cfg)
    with _open_out(path, "\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _fnum(x):
    """Round-trip decimal text for a scalar (numpy scalars included)."""
    return repr(float(x))


def write_csv(path, header, rows, cfg):
    meta = _meta(cfg)
    with _open_out(path, "") as fh:
        wr = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        wr.writerow(["# config_hash=%s version=%s" % (meta["config_hash"],
                                                      meta["version"])])
        wr.writerow(header)
        for row in rows:
            wr.writerow([float(c) if isinstance(c, (float, np.floating)) else c
                         for c in row])


def _setup(cfg):
    if get_int(cfg, "k", 64) < 16:
        raise ConfigError("K must be >= 16")
    s = get_float(cfg, "s", 0.0)
    rng = np.random.default_rng(get_int(cfg, "seed", 0))
    weight = parse_weight(cfg.get("weight"))
    try:
        # a spec whose numbers overflow builds non-finite coefficients, which
        # Potential rejects
        with np.errstate(over="ignore", invalid="ignore"):
            q = parse_potential(cfg.get("potential", "zero"), s, weight, rng)
    except InvalidSequenceError as exc:  # s, odd modes, oversized coefficients
        raise ConfigError(str(exc))
    return q, s, weight, rng


def cmd_spectrum(cfg):
    q, s, weight, rng = _setup(cfg)
    K = get_int(cfg, "k", 64)
    spec = full_spectrum(q, K)
    gam, tau, diff = gaps_and_midpoints(spec)
    obj = {
        "K": K,
        "trust_count": spec.trust,
        "periodic": [[v.real, v.imag] for v in spec.periodic],
        "dirichlet": [[v.real, v.imag] for v in spec.dirichlet],
        "gaps": [[v.real, v.imag] for v in gam],
        "midpoints": [[v.real, v.imag] for v in tau],
    }
    write_json(os.path.join(cfg["out"], "spectrum.json"), obj, cfg)
    rows = []
    for i in range(1, spec.trust + 1):
        lm, lp = spec.lam_minus(i), spec.lam_plus(i)
        mu = spec.mu(i)
        rows.append([i, _fnum(lm.real), _fnum(lm.imag), _fnum(lp.real),
                     _fnum(lp.imag), _fnum(gam[i - 1].real),
                     _fnum(tau[i - 1].real), _fnum(mu.real),
                     _fnum(diff[i - 1].real)])
    write_csv(os.path.join(cfg["out"], "spectrum.csv"),
              ["n", "re_lam_minus", "im_lam_minus", "re_lam_plus",
               "im_lam_plus", "gamma", "tau", "mu", "tau_minus_mu"],
              rows, cfg)
    return 0


def cmd_reduce(cfg):
    q, s, weight, rng = _setup(cfg)
    K = get_int(cfg, "k", 64)
    ctx = make_context(q, s=s, w=weight)
    spec = periodic_spectrum(q, K)
    n_lo = get_int(cfg, "n_lo", ctx.n_s)
    n_hi = get_int(cfg, "n_hi", min(ctx.n_s + 7, spec.trust))
    if n_lo < 1:
        raise ConfigError("n_lo must be >= 1, got %d" % n_lo)
    if n_hi < n_lo:
        raise ConfigError("no modes to reduce: n_lo = %d > n_hi = %d (n_s = %d, "
                          "Galerkin trust count %d at K = %d)"
                          % (n_lo, n_hi, ctx.n_s, spec.trust, K))
    rows = []
    entries = []
    worst = 0.0
    failed = False
    found = iter(find_roots_batch(ctx, range(max(n_lo, ctx.n_s), n_hi + 1)))
    for n in range(n_lo, n_hi + 1):
        if n < ctx.n_s:
            rows.append([n, "below-threshold", "", "", "", "", "", "", "", ""])
            entries.append({"n": n, "status": "below-threshold"})
            continue
        res = next(found)
        entry = {
            "n": n,
            "a_n": [res.a_n.real, res.a_n.imag],
            "b_n": [res.b_n.real, res.b_n.imag],
            "b_neg_n": [res.b_neg_n.real, res.b_neg_n.imag],
            "alpha_n": [res.alpha_n.real, res.alpha_n.imag],
            "xi_1": [res.xi_1.real, res.xi_1.imag],
            "xi_2": [res.xi_2.real, res.xi_2.imag],
            "gap": res.gap_estimate,
            "method": res.method,
            "terms": res.neumann_terms_used,
            "converged": res.converged,
        }
        status = "ok"
        mismatch = ""
        if n <= spec.trust:
            lam = sorted([spec.lam_minus(n), spec.lam_plus(n)],
                         key=lambda z: (z.real, z.imag))
            xi = sorted([res.xi_1, res.xi_2], key=lambda z: (z.real, z.imag))
            mm = max(abs(xi[0] - lam[0]), abs(xi[1] - lam[1]))
            worst = max(worst, mm / (n * n * math.pi ** 2))
            mismatch = _fnum(mm)
            entry["oracle_gap"] = abs(lam[1] - lam[0])
            entry["max_mismatch"] = mm
            if mm > 1e-6 * n * n * math.pi ** 2:
                status = "mismatch"
                failed = True
        entry["status"] = status
        entries.append(entry)
        rows.append([n, status, _fnum(res.xi_1.real), _fnum(res.xi_2.real),
                     _fnum(res.gap_estimate), _fnum(res.contraction_bound),
                     res.method, res.neumann_terms_used, res.converged,
                     mismatch])
    obj = {"n_s": ctx.n_s, "N_ms": ctx.N_ms, "M_ms": ctx.M_ms,
           "c_s": ctx.c_s, "c_s_prime": ctx.c_s_prime,
           "worst_relative_mismatch": worst, "rows": entries}
    write_json(os.path.join(cfg["out"], "reduce.json"), obj, cfg)
    write_csv(os.path.join(cfg["out"], "reduce.csv"),
              ["n", "status", "xi_1_re", "xi_2_re", "gap",
               "contraction_bound", "method", "terms", "converged",
               "oracle_mismatch"], rows, cfg)
    return 1 if failed else 0


def cmd_flow(cfg):
    q, s, weight, rng = _setup(cfg)
    K = get_int(cfg, "k", 64)
    t = get_float(cfg, "t", 1.0)
    spec = periodic_spectrum(q, K)
    gam, tau, diff = gaps_and_midpoints(spec)
    I = actions_from_gaps(gam)
    om = frequencies(I)
    z0 = linearized_birkhoff(q)
    z1 = birkhoff_flow(z0, t)
    inv = torus_membership(z0, z1, 1e-12)
    obj = {
        "asymptotic": True,
        "t": t,
        "modes_t0": [[n, z0[n].real, z0[n].imag]
                     for n in range(-z0.half_range, z0.half_range + 1) if n],
        "modes_t1": [[n, z1[n].real, z1[n].imag]
                     for n in range(-z1.half_range, z1.half_range + 1) if n],
        "actions_from_gaps": I.tolist(),
        "frequencies": om.tolist(),
        "action_invariance": bool(inv),
        "action_invariance_defect": [abs(abs(z1[n]) - abs(z0[n]))
                                     for n in range(1, z0.half_range + 1)],
    }
    write_json(os.path.join(cfg["out"], "flow.json"), obj, cfg)
    rows = [[n, _fnum(I[n - 1]) if n - 1 < I.size else "",
             _fnum(om[n - 1]) if n - 1 < om.size else "",
             _fnum(abs(z0[n])), _fnum(abs(z1[n]))]
            for n in range(1, z0.half_range + 1)]
    write_csv(os.path.join(cfg["out"], "flow.csv"),
              ["n", "action", "frequency", "amp_t0", "amp_t1"], rows, cfg)
    return 0 if inv else 1


def _suite_decay(cfg, rng):
    s = -0.25
    q = Potential.power_law(0.1, s, 128, s=s)
    rep = verify_decay(q, None, s, [96, 128])
    ok = rep["gamma_stabilization"] < 0.05 and rep["tail_bound"]["holds"]
    return {"suite": "decay", "pass": bool(ok),
            "gamma_stabilization": rep["gamma_stabilization"],
            "sup_gamma": rep["sup_gamma"]}


def _suite_isospectral(cfg, rng):
    q = Potential.single_mode(0.05, n_max=8)
    rep = isospectral_check(q, 0.005, 32, dt=1e-4, K_pde=24)
    ok = rep["max_lambda_drift"] < 1e-6 and rep["hamiltonian_rel_drift"] < 1e-6
    return {"suite": "isospectral", "pass": bool(ok),
            "max_lambda_drift": rep["max_lambda_drift"],
            "hamiltonian_rel_drift": rep["hamiltonian_rel_drift"]}


def _suite_airy(cfg, rng):
    s = -0.25
    q = Potential.power_law(0.1, -s, 64, s=s)
    ts = [10.0 ** e for e in np.linspace(-6, -3, 10)]
    sups, comps = airy_distances(potential_to_pde_state(q), ts, s)
    ok = all(v >= 0.1 for v in sups) and comps[0] < comps[-1]
    write_csv(os.path.join(cfg["out"], "airy_demo.csv"),
              ["t", "sup_norm_distance", "component_1_distance"],
              [[_fnum(t), _fnum(sv), _fnum(cv)]
               for t, sv, cv in zip(ts, sups, comps)], cfg)
    return {"suite": "airy-demo", "pass": bool(ok), "sup_floor": min(sups)}


def _suite_sandwich(cfg, rng):
    _, _, rep = isolated_mode_sandwich(rng, (0, 1))
    ok = not rep.get("condition_met") or bool(rep.get("holds"))
    checked = [{"n": rep["n"], "condition_met": rep.get("condition_met"),
                "holds": rep.get("holds")}]
    return {"suite": "sandwich", "pass": ok, "checked": checked}


def cmd_verify(cfg):
    rng = np.random.default_rng(get_int(cfg, "seed", 0))
    suites = {"decay": _suite_decay, "isospectral": _suite_isospectral,
              "airy-demo": _suite_airy, "sandwich": _suite_sandwich}
    chosen = cfg.get("suite", "all")
    if chosen != "all" and chosen not in suites:
        raise ConfigError("unknown suite %r (choices: %s, all)"
                          % (chosen, ", ".join(sorted(suites))))
    names = list(suites) if chosen == "all" else [chosen]
    results = [suites[name](cfg, rng) for name in names]
    n_pass = sum(r["pass"] for r in results)
    summary = {"suites_run": len(names), "suites_passed": n_pass,
               "results": results}
    write_json(os.path.join(cfg["out"], "verify.json"), summary, cfg)
    if n_pass < len(names):
        failed = [r["suite"] for r in results if not r["pass"]]
        print("FAILED suites: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="hillkdv",
                                description="Hill-operator spectral toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    kinds = {"--K": dict(dest="k", type=int), "--s": dict(type=float),
             "--t": dict(type=float), "--seed": dict(type=int)}
    model = ("--potential", "--K", "--s", "--weight")
    # each subcommand takes only the flags it reads
    for name, reads in (("spectrum", model), ("reduce", model),
                        ("flow", model + ("--t",)), ("verify", ("--suite",))):
        sp = sub.add_parser(name)
        for flag in ("--config",) + reads + ("--out", "--seed"):
            sp.add_argument(flag, **kinds.get(flag, {}))
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args)
        handler = {"spectrum": cmd_spectrum, "reduce": cmd_reduce,
                   "flow": cmd_flow, "verify": cmd_verify}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ThresholdError, ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
