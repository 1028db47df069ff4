"""Command-line entry point.

Subcommands: spectrum, reduce, flow, verify.  KEYS lists the keys each one
reads, with their conversion, default and least value; they are its flags
(n_lo and n_hi are read from --config only) and its --config keys; only
reduce reads s and weight, the space of its thresholds (the spectrum and the
asymptotic flow do not depend on it).  A --config file is UTF-8, INI-style
flat key=value (sections are merged in file order); flags take precedence.
A flag the subcommand does not read is a usage error, and such a --config
key is a config error.
Outputs are UTF-8 JSON with sorted keys and RFC-4180 CSV; every file embeds
the package version and config_hash, a hash of the typed values of the keys
read (the output directory excluded), so a fixed config + seed reproduces
outputs byte for byte at a fixed BLAS thread count.  LAPACK's eigenvalues
(spectrum, flow, verify, reduce's oracle columns) can change in the last
digits with it; the reduction's own numbers use no BLAS and do not.

The verify suites run the library code of acceptance criteria 7 (decay), 8
(isospectral), 10 (airy-demo) and 6 (sandwich) at their own sizes.

Exit codes: 0 pass, 1 assertion failure or a failed computation (out of
memory included), 2 usage/config error.  Exit 1 prints one "error:" line,
after the outputs if an assertion failed: reduce names its mismatch modes,
off its Galerkin oracle by over 1e-6 n^2 pi^2 (a --K that caps oracle_K below
n_hi + H can make the oracle's own truncation one), verify its failed suites.
A mode's max_mismatch is the distance between the reduction's pair and the
oracle's taken as sets, min over the two pairings of the larger root error.
"""

import argparse
import configparser
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .sequences import FourierSeq, Weight, WeightError, InvalidSequenceError
from .operator import Potential
from .galerkin import full_spectrum, periodic_spectrum, trust_count, \
    verify_decay
from .reduction import ThresholdError, make_context, find_roots_batch, \
    isolated_mode_sandwich
from .birkhoff import linearized_birkhoff, actions_from_gaps, frequencies, \
    flow as birkhoff_flow
from .pde import airy_distances, isospectral_check, potential_to_pde_state


class ConfigError(ValueError):
    pass


def boolean(text):
    """0 or false as False, 1 or true as True, any other text a ValueError."""
    return ["0", "false", "1", "true"].index(text) >= 2


_MODEL = {"potential": (str, "zero"), "k": (int, 64, 16)}
_RUN = {"seed": (int, 0, 0), "out": (str, "out")}
# The keys each subcommand reads, name: (conversion, default[, least]).  They
# are its --config keys and its flags, --name or FLAG[name] (n_lo and n_hi
# have none); config_hash covers their values, out excepted.
KEYS = {"spectrum": {**_MODEL, **_RUN},
        "reduce": {**_MODEL, "weight": (str, "trivial"), "s": (float, 0.0),
                   "n_lo": (int, None, 1), "n_hi": (int, None), **_RUN},
        "flow": {**_MODEL, "t": (float, 1.0), **_RUN},
        "verify": {"suite": (str, "all"), **_RUN}}
FLAG = {"k": "--K", "n_lo": None, "n_hi": None}
# the fields of each potential spec
POTENTIALS = {"zero": {"nmax": (int, 8, 1)},
              "single-mode": {"c": (float, 0.05), "nmax": (int, 1, 1)},
              "power-law": {"a": (float, 0.1), "e": (float, -0.25),
                            "nmax": (int, 32, 1), "phases": (boolean, False)},
              "random": {"sup": (float, 0.1), "nmax": (int, 16, 1),
                         "decay": (float, 0.0)}}


def read_fields(given, fields, what):
    """The fields (name: (conversion, default[, least])) of a what, each
    converted from its text in given or else its default.  A name that is
    not a field, a text its conversion rejects, a float that is not finite
    and a number below least are config errors."""
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise ConfigError("unknown %s field %s"
                          % (what, ", ".join(map(repr, unknown))))
    out = {}
    for name, (conv, default, *least) in fields.items():
        if name not in given:
            out[name] = default
            continue
        text = given[name]
        try:
            out[name] = val = conv(text)
            if conv is float and not math.isfinite(val):
                raise ValueError(text)
        except ValueError:
            kind = {int: "an integer", float: "a finite number",
                    boolean: "0, 1, false or true"}[conv]
            raise ConfigError("%s field %r is not %s: %r"
                              % (what, name, kind, text))
        if least and val < least[0]:
            raise ConfigError("%s must be >= %d, got %s" % (name, least[0], text))
    return out


def parse_kv(body, fields, what):
    """read_fields over the key=value items of a comma-separated spec body."""
    given = {}
    for item in body.split(",") if body else ():
        key, eq, text = item.partition("=")
        if not eq:
            raise ConfigError("malformed %s parameter %r (expected key=value)"
                              % (what, item))
        given[key.strip()] = text.strip()
    return read_fields(given, fields, what)


def parse_weight(spec):
    if spec in ("", "trivial"):
        return None
    name, _, body = spec.partition(":")
    if name != "poly":
        raise ConfigError("unknown weight spec %r" % spec)
    kv = parse_kv(body, {"a": (float, 1.0), "cap": (float, None)}, "weight")
    try:
        return Weight(kv["a"], kv["cap"])
    except WeightError as exc:  # a < 0 or cap <= 0
        raise ConfigError(str(exc))


def parse_potential(spec, s, weight, rng):
    name, _, body = spec.partition(":")
    if name == "file":
        try:
            with open(body, "r", encoding="utf-8") as fh:
                seq = FourierSeq.from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read potential file %r: %s" % (body, exc))
        return Potential(seq, s=s, weight=weight)
    if name not in POTENTIALS:
        raise ConfigError("unknown potential spec %r" % spec)
    kv = parse_kv(body, POTENTIALS[name], "potential")
    if name == "zero":
        return Potential.zero(kv["nmax"], s=s, weight=weight)
    if name == "single-mode":
        return Potential.single_mode(kv["c"], n_max=kv["nmax"], s=s,
                                     weight=weight)
    if name == "power-law":
        return Potential.power_law(kv["a"], kv["e"], kv["nmax"], s=s,
                                   weight=weight,
                                   rng=rng if kv["phases"] else None)
    return Potential.random_real(rng, kv["nmax"], sup=kv["sup"],
                                 decay=kv["decay"], s=s, weight=weight)


def load_config(args):
    """The values of the keys args.command reads, converted once: its flags
    over its --config file over the defaults.  "meta" adds their
    config_hash and the package version."""
    given = {}
    if args.config:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(args.config, encoding="utf-8"):
                raise ConfigError("config file %r not found" % args.config)
            for section in parser.sections():
                given.update(parser.items(section))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("config parse error: %s" % exc)
        for k, v in parser.defaults().items():
            given.setdefault(k, v)
    keys = KEYS[args.command]
    given.update((k, v) for k, v in vars(args).items()
                 if k in keys and v is not None)
    cfg = read_fields(given, keys, args.command + " config")
    # the output directory is not part of the scientific configuration; a
    # fixed config + seed must produce identical bytes wherever it is written
    blob = json.dumps({k: v for k, v in cfg.items() if k != "out"},
                      sort_keys=True).encode("utf-8")
    cfg["meta"] = {"config_hash": hashlib.sha256(blob).hexdigest()[:16],
                   "version": __version__}
    return cfg


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
    obj = dict(obj, meta=cfg["meta"])
    with _open_out(path, "\n") as fh:  # one write, not one per chunk
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_csv(path, header, rows, cfg):
    with _open_out(path, "") as fh:
        wr = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        wr.writerow(["# config_hash={config_hash} version={version}".format(
            **cfg["meta"])])
        wr.writerow(header)
        for row in rows:
            wr.writerow([float(c) if isinstance(c, (float, np.floating)) else c
                         for c in row])


def _potential(cfg):
    rng = np.random.default_rng(cfg["seed"])
    s, weight = cfg.get("s", 0.0), parse_weight(cfg.get("weight", "trivial"))
    try:
        # a spec whose numbers overflow builds non-finite coefficients, which
        # Potential rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return parse_potential(cfg["potential"], s, weight, rng)
    except InvalidSequenceError as exc:  # s, odd modes, oversized coefficients
        raise ConfigError(str(exc))


def cmd_spectrum(cfg):
    K = cfg["k"]
    spec = full_spectrum(_potential(cfg), K)
    gam, tau, diff = spec.gaps(), spec.midpoints(), spec.tau_minus_mu()
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
        lm, lp, mu = spec.lam_minus(i), spec.lam_plus(i), spec.mu(i)
        rows.append([i, lm.real, lm.imag, lp.real, lp.imag, gam[i - 1].real,
                     tau[i - 1].real, mu.real, diff[i - 1].real])
    write_csv(os.path.join(cfg["out"], "spectrum.csv"),
              ["n", "re_lam_minus", "im_lam_minus", "re_lam_plus",
               "im_lam_plus", "gamma", "tau", "mu", "tau_minus_mu"],
              rows, cfg)


def cmd_reduce(cfg):
    q, K = _potential(cfg), cfg["k"]
    ctx = make_context(q)
    n_lo = ctx.n_s if cfg["n_lo"] is None else cfg["n_lo"]
    trust = trust_count(K)
    n_hi = min(ctx.n_s + 7, trust) if cfg["n_hi"] is None else cfg["n_hi"]
    if n_hi < n_lo:
        raise ConfigError("no modes to reduce: n_lo = %d > n_hi = %d (n_s = %d, "
                          "Galerkin trust count %d at K = %d)"
                          % (n_lo, n_hi, ctx.n_s, trust, K))
    # K caps the oracle; it is solved at the least size that still trusts
    # n_hi and holds every coupling e_n <-> e_{n+-j}, |j| <= H, of n <= n_hi
    # (trust_count(k) < (k - 2) / 2, so no k below 2 n_hi + 3 trusts n_hi)
    K_trust = next((k for k in range(max(16, 2 * n_hi + 3), K)
                    if trust_count(k) >= n_hi), K)
    K_o = min(K, max(K_trust, n_hi + q.half_range))
    # the reduction first, so that one which raises solves no oracle
    found = iter(find_roots_batch(ctx, range(max(n_lo, ctx.n_s), n_hi + 1)))
    spec = periodic_spectrum(q, K_o)
    rows, csv_rows, worst = [], [], 0.0
    for n in range(n_lo, n_hi + 1):
        row = {"n": n, "status": "below-threshold"}
        rows.append(row)
        if n < ctx.n_s:
            csv_rows.append([n, row["status"]] + [""] * 8)
            continue
        res = next(found)
        row.update(status="ok", a_n=[res.a_n.real, res.a_n.imag],
                   b_n=[res.b_n.real, res.b_n.imag],
                   b_neg_n=[res.b_neg_n.real, res.b_neg_n.imag],
                   alpha_n=[res.alpha_n.real, res.alpha_n.imag],
                   xi_1=[res.xi_1.real, res.xi_1.imag],
                   xi_2=[res.xi_2.real, res.xi_2.imag], gap=res.gap_estimate,
                   method=res.method, terms=res.neumann_terms_used,
                   converged=res.converged)
        if n <= spec.trust:  # the two pairs compared as sets
            lm, lp = spec.lam_minus(n), spec.lam_plus(n)
            mm = min(max(abs(res.xi_1 - lm), abs(res.xi_2 - lp)),
                     max(abs(res.xi_1 - lp), abs(res.xi_2 - lm)))
            worst = max(worst, mm / (n * n * math.pi ** 2))
            row.update(oracle_gap=abs(lp - lm), max_mismatch=mm)
            if mm > 1e-6 * n * n * math.pi ** 2:
                row["status"] = "mismatch"
        csv_rows.append([n, row["status"], res.xi_1.real, res.xi_2.real,
                         res.gap_estimate, res.contraction_bound, res.method,
                         res.neumann_terms_used, res.converged,
                         row.get("max_mismatch", "")])
    obj = {"n_s": ctx.n_s, "c_s": ctx.c_s, "c_s_prime": ctx.c_s_prime,
           "oracle_K": K_o, "worst_relative_mismatch": worst, "rows": rows}
    for name in ("N_ms", "M_ms"):  # null past the float range
        try:
            v = getattr(ctx, name)  # past 2^53 only a float's digits are known
            obj[name] = v if v <= 2 ** 53 else float(v)
        except ThresholdError:
            obj[name] = None
    write_json(os.path.join(cfg["out"], "reduce.json"), obj, cfg)
    write_csv(os.path.join(cfg["out"], "reduce.csv"),
              ["n", "status", "xi_1_re", "xi_2_re", "gap",
               "contraction_bound", "method", "terms", "converged",
               "oracle_mismatch"], csv_rows, cfg)
    bad = [r["n"] for r in rows if r["status"] == "mismatch"]
    if bad:
        raise AssertionError("modes %s differ from the Galerkin oracle at "
                             "oracle_K = %d by more than 1e-6 n^2 pi^2"
                             % (bad, K_o))


def cmd_flow(cfg):
    q, t = _potential(cfg), cfg["t"]
    spec = periodic_spectrum(q, cfg["k"])
    # an overflow (omega_n t at a huge t) is reported below as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        I = actions_from_gaps(spec.gaps())
        om = frequencies(I)
        z0 = linearized_birkhoff(q)
        z1 = birkhoff_flow(z0, t)
    # |z1_n| = |z0_n| by construction: only a non-finite value can fail
    finite = all(np.isfinite(v).all() for v in (z0.coeffs, z1.coeffs, I, om))
    obj = {
        "asymptotic": True,
        "t": t,
        "modes_t0": [[n, z0[n].real, z0[n].imag]
                     for n in range(-z0.half_range, z0.half_range + 1) if n],
        "modes_t1": [[n, z1[n].real, z1[n].imag]
                     for n in range(-z1.half_range, z1.half_range + 1) if n],
        "actions_from_gaps": I.tolist(),
        "frequencies": om.tolist(),
        "action_invariance": finite,
    }
    write_json(os.path.join(cfg["out"], "flow.json"), obj, cfg)
    rows = [[n, I[n - 1] if n - 1 < I.size else "",
             om[n - 1] if n - 1 < om.size else "", abs(z0[n]), abs(z1[n])]
            for n in range(1, z0.half_range + 1)]
    write_csv(os.path.join(cfg["out"], "flow.csv"),
              ["n", "action", "frequency", "amp_t0", "amp_t1"], rows, cfg)
    if not finite:
        raise AssertionError("flow at t = %r: a reported value is not finite"
                             % t)


def _suite_decay(cfg, rng):
    s = -0.25
    q = Potential.power_law(0.1, s, 128, s=s)
    rep = verify_decay(q, [96, 128])
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
              zip(ts, sups, comps), cfg)
    return {"suite": "airy-demo", "pass": bool(ok), "sup_floor": min(sups)}


def _suite_sandwich(cfg, rng):
    _, _, rep = isolated_mode_sandwich(rng, (0, 1))
    ok = not rep.get("condition_met") or bool(rep.get("holds"))
    checked = [{"n": rep["n"], "condition_met": rep.get("condition_met"),
                "holds": rep.get("holds")}]
    return {"suite": "sandwich", "pass": ok, "checked": checked}


def cmd_verify(cfg):
    rng = np.random.default_rng(cfg["seed"])
    suites = {"decay": _suite_decay, "isospectral": _suite_isospectral,
              "airy-demo": _suite_airy, "sandwich": _suite_sandwich}
    chosen = cfg["suite"]
    if chosen != "all" and chosen not in suites:
        raise ConfigError("unknown suite %r (choices: %s, all)"
                          % (chosen, ", ".join(sorted(suites))))
    names = list(suites) if chosen == "all" else [chosen]
    results = [suites[name](cfg, rng) for name in names]
    failed = [r["suite"] for r in results if not r["pass"]]
    summary = {"suites_run": len(names),
               "suites_passed": len(names) - len(failed), "results": results}
    write_json(os.path.join(cfg["out"], "verify.json"), summary, cfg)
    if failed:
        raise AssertionError("failed suites: %s" % ", ".join(failed))


@functools.cache  # parse_args only reads the parser
def build_parser():
    p = argparse.ArgumentParser(prog="hillkdv",
                                description="Hill-operator spectral toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, keys in KEYS.items():
        sp = sub.add_parser(name, allow_abbrev=False)  # --s is not --seed
        sp.add_argument("--config")
        for key in keys:
            flag = FLAG.get(key, "--" + key)
            if flag:
                sp.add_argument(flag, dest=key)
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
        handler(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, ValueError, ArithmeticError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
