"""Seeded inputs, tasks and correctness gates for the benchmark workloads.

Each workload is built from the workload seed alone: `setup()` generates
every potential, writes the `file:` JSON potentials and INI configs that the
CLI tasks read, and pays the cold costs a user pays once per process (the
import, the `c_s`/`c_s'` sweeps for every regularity label s the workload
uses, the first dense eigensolve).  `tasks()` then lists the tasks of one
round.  A task returns `(ok, blob)`: `ok` is its correctness gate and `blob`
the bytes of its computed output, which the traced run compares against the
untraced run.

Library functions are always called through their module (`R.find_roots`,
`cli.main`), so the tracer's wrappers, which replace module attributes, see
every call.
"""

import configparser
import json
import math
import os

import numpy as np

from hillkdv import cli, galerkin as G, reduction as R, sequences as S
from hillkdv.operator import Potential

PI2 = math.pi ** 2

# Ball radius for the criterion-6 kind of high_mode.  With the default
# m = 1, M_ms is about 8.3e5 and one such case takes about 25 s (ctx.K = 64)
# or about 80 s (default ctx.K) on a 2-core x86 VM with OpenBLAS, which no
# run of the benchmark can afford.
# At m = 1/4, M_ms = 52061 for s = 0 and the isolated coefficient at
# +-(M_ms + 1) still puts the potential's half range (about 1.04e5) on the
# `qh > 4096` side of `working_K`.
C6_BALL_RADIUS = 0.25


class Task:
    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


def _rng(seed, stream):
    """Independent stream per input, so adding an input moves no other."""
    return np.random.default_rng([stream, int(seed) % 2 ** 64])


def _phases(rng, size):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=size))


def band_limited_real(rng, n_max=8, sup=0.05):
    return Potential.random_real(rng, n_max, sup=sup, s=0.0)


def smooth_real(rng, n_max=26, amp=0.05):
    """Criterion-2 family: |q_2n| = amp <n>^{-1/2} with seeded phases."""
    ns = np.arange(1, n_max + 1)
    vals = amp * (1.0 + ns) ** -0.5 * _phases(rng, n_max)
    pairs = [(int(n), v) for n, v in zip(ns, vals)]
    pairs += [(-int(n), np.conj(v)) for n, v in zip(ns, vals)]
    return Potential.from_even_pairs(pairs, n_max=n_max, s=0.0)


def rough_power_law(rng, n_max=16, s=-0.25):
    """Full-band power law |q_2n| = 0.1 <n>^s with seeded phases."""
    return Potential.power_law(0.1, s, n_max, s=s, rng=rng)


def complex_potential(rng, n_max=16, amp=0.05):
    """Non-self-adjoint: q_2n and q_-2n have independent seeded phases."""
    ns = np.arange(1, n_max + 1)
    mags = amp * (1.0 + ns) ** -0.5
    plus = mags * _phases(rng, n_max)
    minus = mags * _phases(rng, n_max)
    pairs = [(int(n), v) for n, v in zip(ns, plus)]
    pairs += [(-int(n), v) for n, v in zip(ns, minus)]
    return Potential.from_even_pairs(pairs, n_max=n_max, s=0.0, real=False)


def isolated_high_mode(base, n, amp=0.01):
    """Band-limited base plus an isolated coefficient q_{+-2n} = amp."""
    K = base.half_range // 2
    pairs = [(k, base.coeff(2 * k)) for k in range(-K, K + 1) if k != 0]
    pairs += [(n, amp), (-n, amp)]
    return Potential.from_even_pairs(pairs, n_max=n, s=base.s)


def projector_potential(rng, ns=(8, 12, 16, 24, 32, 48, 64), c=0.02):
    """Criterion-12 lacunary family with seeded phases: mass c (n-1)^{3/4}
    at modes +-2(n-1), kept real."""
    pairs = []
    for n, ph in zip(ns, _phases(rng, len(ns))):
        v = c * (n - 1) ** 0.75 * ph
        pairs += [(n - 1, v), (-(n - 1), np.conj(v))]
    return Potential.from_even_pairs(pairs, n_max=max(ns), s=0.0)


def write_potential(path, q):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(q.seq.to_json())


def write_config(path, fields):
    parser = configparser.ConfigParser()
    parser["run"] = {k: str(v) for k, v in fields.items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def output_bytes(out_dir):
    blob = b""
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob += name.encode() + b"\0" + fh.read()
    return blob


def load_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def complex_blob(*values):
    return np.asarray(values, dtype=complex).tobytes()


class Workload:
    name = ""

    def __init__(self, seed, work_dir):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.in_dir = os.path.join(work_dir, "inputs")
        os.makedirs(self.in_dir, exist_ok=True)

    def cli_task(self, name, command, fields, check):
        """One `hillkdv` subcommand, run in-process through cli.main with a
        generated config file; gated on exit code 0 and `check(out_dir)`."""
        config = os.path.join(self.in_dir, name + ".ini")
        write_config(config, fields)
        out_dir = os.path.join(self.work_dir, "out", name)
        argv = [command, "--config", config, "--out", out_dir]

        def run():
            code = cli.main(argv)
            if code != 0:
                return False, b""
            return bool(check(out_dir)), output_bytes(out_dir)
        return Task(name, run)


class HighMode(Workload):
    """Reduction at n >= M_ms on both sides of the `qh <= 4096` branch of
    `working_K`; Galerkin does nothing here."""
    name = "high_mode"

    def setup(self):
        self.q5 = band_limited_real(_rng(self.seed, 1))
        R.make_context(self.q5)  # cold c_s / c_s' sweeps at s = 0
        base = band_limited_real(_rng(self.seed, 2))
        M6 = R.make_context(base, m=C6_BALL_RADIUS).M_ms
        self.n6 = M6 + 1
        self.q6 = isolated_high_mode(base, self.n6)

    def tasks(self):
        return [Task("criterion5", self.criterion5),
                Task("criterion6", self.criterion6)]

    def criterion5(self):
        """alpha_n at N_ms and the adapted map up to M_ms (band-limited q)."""
        q = self.q5
        ctx = R.make_context(q)
        n = ctx.N_ms
        alpha = R.alpha_fixed_point(ctx, n)
        c = R.coefficients(ctx, n, alpha)
        ok = abs(alpha - n * n * PI2 - c.a_n) < 1e-9 * n * n * PI2
        r = R.adapted_coefficients(ctx, n_max=ctx.M_ms)
        diff = r.coeffs.copy()
        for k in q.seq.nonzero_ks():
            diff[r.index(int(k))] -= q.coeff(int(k))
        qn = q.norm_ws_inf()
        rn = S.norm(r, None, 0.0, math.inf)
        ok = ok and float(np.max(np.abs(diff))) <= ctx.m / 16.0
        ok = ok and 0.5 * qn <= rn <= 2.0 * qn
        return ok, complex_blob(alpha, c.a_n) + r.coeffs.tobytes()

    def criterion6(self):
        """Gap sandwich at n = M_ms + 1 for an isolated coefficient at +-n."""
        ctx = R.make_context(self.q6, m=C6_BALL_RADIUS)
        n = self.n6
        if ctx.M_ms != n - 1:
            return False, b""
        res = R.find_roots(ctx, n, xi_bound_grid=0)
        r = R.adapted_coefficients(ctx, n_max=n)
        rep = R.gap_sandwich(ctx, n, r, res.gap_estimate)
        ok = bool(rep.get("condition_met")) and bool(rep.get("holds"))
        return ok, complex_blob(res.xi_1, res.xi_2, r[2 * n], r[-2 * n])


def _reduce_check(n_lo, n_hi):
    def check(out_dir):
        rep = load_json(out_dir, "reduce.json")
        rows = rep["rows"]
        return (len(rows) == n_hi - n_lo + 1
                and all(row["status"] == "ok" and "max_mismatch" in row
                        for row in rows)
                and rep["worst_relative_mismatch"] <= 1e-6)
    return check


class LowMode(Workload):
    """`hillkdv reduce` over modes n_s..n_s+20 of a smooth real potential and
    n_s..n_s+39 of a rough and a complex one, each root checked by the CLI
    against the dense Galerkin oracle.  The 40-mode ranges run as two
    20-mode invocations, so that a run has enough tasks for a steady
    median task time."""
    name = "low_mode"

    # (name, generator, s, Galerkin K, modes from n_s, invocations)
    CASES = (("smooth", smooth_real, 0.0, 128, 21, 1),
             ("rough", rough_power_law, -0.25, 256, 40, 2),
             ("complex", complex_potential, 0.0, 256, 40, 2))

    def setup(self):
        self.runs = []
        for stream, (name, make, s, K, modes, parts) in enumerate(self.CASES,
                                                                  1):
            q = make(_rng(self.seed, stream))
            path = os.path.join(self.in_dir, name + ".json")
            write_potential(path, q)
            n_s = R.make_context(q, s=s).n_s  # cold sweeps for each s
            if n_s + modes - 1 > G.trust_count(K):
                raise ValueError("%s: modes beyond the Galerkin trust count "
                                 "at K = %d" % (name, K))
            for part in range(parts):
                n_lo = n_s + part * modes // parts
                n_hi = n_s + (part + 1) * modes // parts - 1
                self.runs.append(("%s-%d" % (name, part + 1),
                                  {"potential": "file:" + path, "s": s,
                                   "k": K, "n_lo": n_lo, "n_hi": n_hi}))
            if stream == 1:
                G.full_spectrum(q, K)  # first eigensolve

    def tasks(self):
        return [self.cli_task("reduce-" + name, "reduce", fields,
                              _reduce_check(fields["n_lo"], fields["n_hi"]))
                for name, fields in self.runs]


def _spectrum_check(out_dir):
    """Trace identity: q_0 = 0, so the periodic eigenvalues of the
    (2K+1)-dimensional truncation sum to the sum of (k pi)^2."""
    rep = load_json(out_dir, "spectrum.json")
    K = rep["K"]
    lam = np.array([complex(*v) for v in rep["periodic"]])
    free = float(np.sum((np.arange(-K, K + 1) * math.pi) ** 2))
    return lam.size == 2 * K + 1 and abs(lam.sum() - free) <= 1e-9 * free


def _verify_check(out_dir):
    rep = load_json(out_dir, "verify.json")
    ok = rep["suites_passed"] == rep["suites_run"] == 1
    for res in rep["results"]:
        if res["suite"] == "isospectral":
            ok = ok and res["max_lambda_drift"] < 1e-6
    return ok


def _flow_check(out_dir):
    return load_json(out_dir, "flow.json")["action_invariance"] is True


class GalerkinCli(Workload):
    """Dense spectra, the KdV flow, the built-in verify suites and the
    criterion-12 Riesz projector sweep; bypasses the reduction."""
    name = "galerkin_cli"

    RIESZ_NS = (8, 12, 16, 24, 32, 48, 64)
    RIESZ_K = 180

    def setup(self):
        real = Potential.random_real(_rng(self.seed, 1), 32, sup=0.1)
        cplx = complex_potential(_rng(self.seed, 2), n_max=32)
        self.inputs = {}
        for name, q in (("real", real), ("complex", cplx)):
            path = os.path.join(self.in_dir, name + ".json")
            write_potential(path, q)
            self.inputs[name] = "file:" + path
        self.q12 = projector_potential(_rng(self.seed, 3))
        R.estimate_c_s(-0.25)  # the decay suite's cold c_s sweep
        G.periodic_spectrum(self.q12, self.RIESZ_K)  # first eigensolve

    def tasks(self):
        tasks = []
        for kind in ("real", "complex"):
            for K in (256, 512):
                tasks.append(self.cli_task(
                    "spectrum-%s-%d" % (kind, K), "spectrum",
                    {"potential": self.inputs[kind], "k": K}, _spectrum_check))
        tasks.append(self.cli_task(
            "flow", "flow", {"potential": self.inputs["real"], "k": 256,
                             "t": 0.5}, _flow_check))
        for suite in ("decay", "isospectral", "airy-demo"):
            tasks.append(self.cli_task("verify-" + suite, "verify",
                                       {"suite": suite}, _verify_check))
        for n in self.RIESZ_NS:
            tasks.append(Task("riesz-%d" % n, self._riesz(n)))
        return tasks

    def _riesz(self, n):
        def run():
            P, info = G.riesz_projector(self.q12, n, self.RIESZ_K)
            ok = (info["idempotency_defect"] <= 1e-6
                  and abs(info["trace"] - 2.0) <= 1e-6)
            return ok, P.tobytes()
        return run


WORKLOADS = {w.name: w for w in (HighMode, LowMode, GalerkinCli)}
