"""Lyapunov-Schmidt reduction of the Hill eigenvalue problem near n^2 pi^2.

For each index n the eigenvalue problem splits into a 2x2 system on
span{e_n, e_{-n}} and a contractively solvable equation on the complement:
with T_n(lambda) = V A_lambda^{-1} Q_n and K_n = (I - T_n)^{-1} (Neumann
series), the reduced determinant

    det B_n(lambda) = (lambda - n^2 pi^2 - a_n(lambda))^2
                      - b_n(lambda) b_{-n}(lambda)

has exactly two roots in the strip around n^2 pi^2, which are precisely the
periodic eigenvalues there.  a_n = <K_n V e_n, e_n> and
b_{+-n} = <K_n V e_{-+n}, e_{+-n}>.  This module computes the contraction
constant c_s, the thresholds (n_s, N_ms, M_ms), the coefficients, the fixed
point alpha_n = n^2 pi^2 + a_n(alpha_n), the roots, the adapted coefficient
map r, and the gap sandwich diagnostic.

Inside, lambda is held only as delta = lambda - n^2 pi^2, so each divisor
lambda - (k pi)^2 is delta - (k - n)(k + n) pi^2 with an exact integer
(k - n)(k + n), and no digit is lost to n^2 pi^2.  The map delta -> (a_n,
b_{+-n})(delta) contracts on the strip, so the offsets of alpha_n and of the
roots, the fixed points of delta <- a_n(delta) (+- sqrt(b_n b_{-n})(delta)),
are found by plain iteration.

The Neumann iterates live on their exact support, and nothing is cut to a
window, so K_n is only approximated where the series stops; coefficients
reports whether that met NEUMANN_TOL.  Each row is held in offsets j = k - m
from its own mode m = +-n: V e_n and V e_{-n} both start on supp(q), and T_n
maps the offsets S of a term onto S + supp(q) (sums of runs of step 2),
whatever n and lambda.  So one plan serves both rows of every mode of a batch.
_fixed_points runs the iterations of all modes of a batch together, each round
one Neumann sum over all their rows (per level a divide and a scatter).

All shifted norms are ||f||_{w,s,inf;l} = sup_k w_{k+l} <k+l>^s |f_k|.
"""

from dataclasses import dataclass
import cmath
import functools
import math

import numpy as np

from .sequences import FourierSeq, bracket, hilbert_sum, norm, \
    weight_factors, _divisor_sums
from .operator import Potential


class StripViolationError(ValueError):
    pass


class ContractionFailureError(ArithmeticError):
    pass


class ThresholdError(ValueError):
    pass


class RootError(ArithmeticError):
    pass


PI2 = math.pi ** 2
# a Neumann sum stops below NEUMANN_TOL times its start, or after MAX_TERMS
NEUMANN_TOL, MAX_TERMS = 1e-12, 60

# the n of the c_s sweep: every n <= 1024, then 2048 and 4096 (where the
# scaled sums peak: estimate_c_s)
_C_S_GRID = np.r_[1:1025, 2048, 4096]
# the n of the c_s' sweep
_C_S_PRIME_GRID = list(range(1, 65)) + [96, 128, 192, 256, 384, 512, 768,
                                       1024, 2048, 4096]


def estimate_c_s(s):
    """Contraction constant: c_s = max(1, sup_n n^{1/2-|s|} 2 D(n; 1-2|s|, 1))
    over _C_S_GRID with D(n; a, b) = sum over k != +-n of |k+n|^{-a}
    |k-n|^{-b}, the divisor sum of the T_n operator-norm bound, summed to
    infinity by _divisor_sums.  Computed once per s.  The scaled sums peak
    at n = 2, 4, 41 and 132 for s = 0, -1/4, -0.4 and -0.42; at s = -0.45
    they still rise at the grid's last point, n = 4096, so c_s there is
    only a lower estimate of the sup.
    """
    if not (-0.5 < s <= 0.0):
        raise ValueError("s must be in (-1/2, 0]")
    return _c_s(s)


@functools.cache
def _c_s(s):
    a = abs(s)
    vals = _C_S_GRID ** (0.5 - a) * 2.0 * _divisor_sums(
        _C_S_GRID, 1.0 - 2.0 * a, 1.0)
    return float(max(vals.max(), 1.0))


def epsilon_s(n, s):
    """Decay rate of the leading b_n correction: max of log<n>/n and
    n^{-(1-|s|)} (the two regimes are glued by taking the max)."""
    return max(math.log(1.0 + n) / n, n ** (-(1.0 - abs(s))))


def estimate_c_s_prime(s):
    """c_s' = max(c_s, sup_n 2 <2n>^s D(n; 1-|s|, 1-|s|) / epsilon_s(n)) over
    _C_S_PRIME_GRID, the latter fitted to the <T_n f, e_{+-n}> bound; D is
    hilbert_sum's infinite sum.  Computed once per s; for s < 0 the term still
    rises past n = 4096, so the value is a lower estimate of the sup."""
    return max(estimate_c_s(s), _hilbert_sup(s))  # rejects s outside (-1/2, 0]


@functools.cache
def _hilbert_sup(s):
    h = hilbert_sum(_C_S_PRIME_GRID, 1.0 - abs(s))
    return float(max(2.0 * bracket(2 * n) ** s * hn / epsilon_s(n, s)
                     for n, hn in zip(_C_S_PRIME_GRID, h)))


def _smallest_n(s, target, name):
    """Least integer n >= 1 with n^{1/2-|s|} >= target; name labels errors."""
    if target <= 1.0:
        return 1
    power = 0.5 - abs(s)
    try:
        n = max(1, int(math.ceil(target ** (1.0 / power))) - 2)
    except OverflowError:
        raise ThresholdError("threshold %s exceeds the float range: n^%g >= %.3g"
                             % (name, power, target)) from None
    while n ** power < target * (1.0 - 1e-13):
        n += 1
    return n


@dataclass(frozen=True)
class ReductionContext:
    """q, s, m, c_s and n_s (make_context).  c_s' and the thresholds N_ms and
    M_ms are derived where first read, so one past the float range (near
    s = -1/2) raises ThresholdError there, not in make_context."""
    q: Potential
    s: float
    m: float
    c_s: float
    n_s: int

    @functools.cached_property
    def c_s_prime(self):
        return estimate_c_s_prime(self.s)

    @functools.cached_property
    def N_ms(self):  # the least with 16 c_s' m / N_ms^{1/2-|s|} <= 1/2
        return _smallest_n(self.s, 32.0 * self.c_s_prime * self.m, "N_ms")

    @functools.cached_property
    def M_ms(self):  # the least with 8 c_s' / M_ms^{1/2-|s|} <= 1/(16 m)
        return _smallest_n(self.s, 128.0 * self.c_s_prime * self.m, "M_ms")


def make_context(q, s=None, m=None):
    """Context for q: s (default: the potential's), q's weight w, the ball
    radius m (default max(1, ||q||_{w,s,inf})), c_s and the least n_s with
    2 c_s ||q|| <= n_s^{1/2-|s|}.  n_s grows like (2 c_s ||q||)^{1/(1/2-|s|)},
    so near s = -1/2 only a q with 2 c_s ||q|| <= 1 reaches n_s = 1: at
    s = -0.499, single_mode(0.001) has 2 c_s ||q|| ~ 2.33, and its n_s is past
    the float range (ThresholdError)."""
    if s is None:
        s = q.s
    qn = norm(q.seq, q.weight, s, math.inf)
    if m is None:
        m = max(1.0, qn)
    if qn > m * (1.0 + 1e-12):
        raise ThresholdError("||q||_{w,s,inf} exceeds the bound m")
    c = estimate_c_s(s)
    return ReductionContext(q=q, s=s, m=float(m), c_s=c,
                            n_s=_smallest_n(s, 2.0 * c * qn, "n_s"))


class _OffsetPlan:
    """The delta-free part of the Neumann series from V e_n (row 2i) and
    V e_{-n} (row 2i + 1) for n = ns[i], in offsets j = k - m, m = +-n.  The
    slots j = 0 and j = -2m (k = +-n) that Q_n drops stay in the n-free
    levels S_l: they add only zero products to sums that start at +0.0.
    Per level, found when first needed, rows the inner (contiguous) axis:
    S_l; each row's divisor parts j (j + 2m) pi^2 = (k - n)(k + n) pi^2, inf
    exactly at its dropped slots (c / (delta - inf) is 0, with no division by
    0, and _evaluate reads a_n and b_{+-n} there); the larger shifted-norm
    factor max(w(j) <j>^s, w(j+2m) <j+2m>^s) (exact for the max of the two
    norms, as |c| >= 0); and the maximal runs of step 2 of S_l: slot bounds b
    (run r is S_l[b[r]:b[r + 1]]), first and last slots.  Each tap maps a
    run onto consecutive (even) slots of S_{l+1}, the union of the runs
    [a + c, z + d] over the runs [a, z] of S_0 = supp(q) and [c, d] of S_l.
    Per step, each tap's slot in S_{l+1} for each run's start."""

    def __init__(self, ctx, ns):
        self.ctx, self.q, self.ns = ctx, ctx.q.support, list(ns)
        self.two_m = np.array([(2 * n, -2 * n) for n in self.ns],
                              dtype=np.int64).reshape(-1)
        self.start = self.q.coeffs + 0.0  # V e_0 on S_0 = supp(q), no -0.0
        self.levels, self.steps = [self._level(self.q.idx)], []

    def _level(self, S):
        w, s, jm = self.ctx.q.weight, self.ctx.s, S[:, None] + self.two_m
        kk = S[:, None] * jm * PI2
        kk[(S[:, None] == 0) | (jm == 0)] = np.inf
        # jm first: it reaches the larger |k|, which a WeightError names
        wf = np.maximum(weight_factors(jm.ravel(), w, s).reshape(jm.shape),
                        weight_factors(S, w, s)[:, None])
        b = np.r_[np.flatnonzero(np.diff(S, prepend=S[:1]) != 2), S.size]
        return S, kk, wf, b.tolist(), S[b[:-1]].tolist(), S[b[1:] - 1].tolist()

    def level(self, l):
        """Level l's tables, building the levels and steps up to it."""
        while len(self.levels) <= l:
            S, _, _, b, first, last = self.levels[-1]
            S1 = np.sort(np.concatenate([S[:0]] + [
                np.arange(a + c, z + d + 1, 2)
                for a, z in zip(*self.levels[0][4:])  # S_0 = supp(q)
                for c, d in zip(first, last)]))
            S1 = S1[np.diff(S1, prepend=S1[:1] - 2) != 0]  # each slot once
            dests = np.searchsorted(S1, np.add.outer(self.q.idx, first))
            self.steps.append((list(zip(b, b[1:])), dests.tolist()))
            self.levels.append(self._level(S1))
        return self.levels[l]

    def apply(self, l, x):
        """The terms on S_{l+1} from x = A^{-1} Q_n c on S_l, slots by rows:
        per tap a, in the order of supp(q), one product q_a x, and per run
        its block added to the run's image.  So each slot sums its products
        in the order of supp(q) from +0.0, as multiply(q, .) of
        tests/dense_oracle.py does.  Scalar first: numpy's complex
        multiply(x, q_a) can differ from multiply(q_a, x) in the last bit."""
        out = np.zeros((self.level(l + 1)[0].size, x.shape[1]), dtype=complex)
        runs, dests = self.steps[l]
        p = np.empty_like(x)
        for qa, ds in zip(self.q.coeffs.tolist(), dests):
            np.multiply(qa, x, out=p)
            for (i0, i1), d in zip(runs, ds):
                o = out[d:d + i1 - i0]
                np.add(o, p[i0:i1], out=o)
        return out


@dataclass
class CoeffResult:
    n: int
    delta: complex     # lambda - n^2 pi^2
    a_n: complex
    b_n: complex
    b_neg_n: complex
    terms_used: int
    max_ratio: float
    converged: bool    # both Neumann sums met NEUMANN_TOL


def _evaluate(plan, modes, deltas):
    """The CoeffResult at n = plan.ns[i] and delta for each pair (i, delta)
    of modes and deltas, from one Neumann sum over all their rows: a_n =
    <K_n V e_n, e_n>, b_n = <K_n V e_{-n}, e_n> and b_{-n} = <K_n V e_n,
    e_{-n}> at lambda = n^2 pi^2 + delta, added level by level from 0j.
    A row leaves the batch when its own sum stops: once its latest term's
    shifted norm is below NEUMANN_TOL times its start's (a zero term ends
    it uncounted), or MAX_TERMS applications of T_n are spent (converged
    False).  The first error ends the batch: StripViolationError for the
    first delta outside its strip S_n, before any sum, else
    ContractionFailureError at the first level where a row's term ratio has
    been > 0.9 three times in a row, naming the first such row's mode.

    On S_n no divisor comes near 0, so none is guarded: the offsets k - n
    are even and k != +-n, so (k - n)(k + n) = 4a(a + n) with a != 0, -n is
    at least 8 at n = 1 and 4n - 4 for n >= 2, and for |Re delta| <= 12 n
    every |delta - (k - n)(k + n) pi^2| is at least 8 pi^2 - 12 at n = 1 and
    (4n - 4) pi^2 - 12 n >= 15.4 for n >= 2.

    Row 2e sums from V e_n and row 2e + 1 from V e_{-n} of the e-th
    evaluation, its terms at the slots where its divisor part is inf: j = 0
    (S_l = 0) into its first sum, j = -2m into its second.  Each row's stop
    state (last term norm, the start's by the same rule, worst ratio,
    streak, terms used, stopped, and its two sums) is an array over the
    rows, updated once per level at the rows still in the batch."""
    ns = [plan.ns[i] for i in modes]
    for n, d in zip(ns, deltas):
        if abs(d.real) > 12.0 * n + 1e-9:
            raise StripViolationError("delta %r outside S_%d" % (d, n))
    cols = np.array([2 * i + r for i in modes for r in (0, 1)],
                    dtype=np.intp)  # each row's table column
    c, lv = np.repeat(plan.start[:, None], cols.size, axis=1), plan.level(0)
    prev = (lv[2][:, cols] * np.abs(c)).max(axis=0, initial=0.0)
    stop = NEUMANN_TOL * np.maximum(prev, 1e-300)
    ratio, h = np.zeros(cols.size), np.zeros((cols.size, 2), dtype=complex)
    streak, used = np.zeros(cols.size, int), np.ones(cols.size, int)
    done = np.zeros(cols.size, bool)
    # act: the rows with a column in c (cols, kk and d_act follow it)
    act = np.arange(cols.size)
    d_act = np.repeat(np.array(deltas, dtype=complex), 2)
    for l in range(MAX_TERMS + 1):
        kk = lv[1][:, cols]
        i, k = np.nonzero(np.isinf(kk))  # the slots j = 0 and -2m
        h[act[k], (lv[0][i] != 0).astype(np.intp)] += c[i, k]
        keep = ~done[act]
        if not keep.all():  # the columns of rows that stopped leave
            act, cols, kk, c, d_act = act[keep], cols[keep], kk[:, keep], \
                c[:, keep], d_act[keep]
        if l == MAX_TERMS or not act.size:
            break
        c, lv = plan.apply(l, c / (d_act - kk)), plan.levels[l + 1]
        tn = (lv[2][:, cols] * np.abs(c)).max(axis=0, initial=0.0)
        up = prev[act] > 0
        r, pr = tn[up] / prev[act[up]], act[up]
        ratio[pr] = np.fmax(ratio[pr], r)  # skips a NaN r, as max() does
        streak[pr] = np.where(r > 0.9, streak[pr] + 1, 0)
        bad = pr[streak[pr] >= 3]
        if bad.size:
            raise ContractionFailureError(
                "Neumann ratio > 0.9 three times at n=%d" % ns[bad[0] // 2])
        # a zero term is exactly 0 at j = 0 and -2m (norm factor >= w_0 = 1),
        # so adding it changes no bit of h, whose sums start at +0.0
        used[act] += tn != 0.0
        done[act], prev[act] = tn < stop[act], tn
    results = zip(ns, deltas, *(x.tolist() for x in (  # in field order
        h[0::2, 0], h[1::2, 1], h[0::2, 1], np.maximum(used[::2], used[1::2]),
        np.maximum(ratio[::2], ratio[1::2]), done[::2] & done[1::2])))
    return [CoeffResult(n, complex(d), *rest) for n, d, *rest in results]


def coefficients(ctx, n, lam):
    """The CoeffResult at n and lambda (_evaluate), delta = lambda - n^2 pi^2."""
    return _evaluate(_OffsetPlan(ctx, [n]), [0],
                     [complex(lam) - n * n * PI2])[0]


@dataclass
class ReductionResult:
    n: int
    a_n: complex
    b_n: complex
    b_neg_n: complex
    alpha_n: complex
    xi_1: complex
    xi_2: complex
    gap_estimate: float
    neumann_terms_used: int
    contraction_bound: float
    method: str        # always "fixed-point"; perfbench/tracer.py reads it
    converged: bool    # sums at each iteration's last iterate met NEUMANN_TOL
    evaluations: int   # the coefficient evaluations behind the result


def _sqrt_continuous(value, prev):
    sq = cmath.sqrt(value)
    return -sq if abs(-sq - prev) < abs(sq - prev) else sq


def _fixed_points(plan, modes, signs, deltas, sqs):
    """Iterate delta <- a_n(delta) + sign sqrt(b_n b_{-n})(delta) at n =
    plan.ns[modes[i]] and sign = signs[i] from deltas[i], for every i at
    once: each round, one _evaluate at the iterates of all iterations still
    running.  Iteration i stops when a step is below 1e-10 n^2 pi^2 (sign
    0, alpha_n's map) or 1e-14 n^2 pi^2 (sign +-1, the maps whose fixed
    points are the roots of det B_n); its square root stays on the branch
    nearest its last value, from sqs[i].  RootError when a step exceeds 0.8
    times the one before (the map does not contract there) or after 80
    steps.  The first error ends the batch: in order of round, then (in
    _evaluate) level, then i.  Returns per i the image of the last iterate,
    the delta it reports, with that iterate's CoeffResult and the list of
    all its CoeffResults."""
    deltas, sqs, out = list(deltas), list(sqs), [None] * len(modes)
    evals, prev = [[] for _ in modes], [math.inf] * len(modes)
    run = list(range(len(modes)))
    while run:
        for i, c in zip(run, _evaluate(plan, [modes[i] for i in run],
                                       [deltas[i] for i in run])):
            n, sign = plan.ns[modes[i]], signs[i]
            evals[i].append(c)
            new = c.a_n
            if sign:
                sqs[i] = _sqrt_continuous(c.b_n * c.b_neg_n, sqs[i])
                new += sign * sqs[i]
            step = abs(new - deltas[i])
            if step < (1e-14 if sign else 1e-10) * n * n * PI2:
                out[i] = new, c, evals[i]
            elif step > 0.8 * prev[i]:
                raise RootError("fixed point not contracting at n=%d" % n)
            elif len(evals[i]) == 80:
                raise RootError("fixed point did not converge at n=%d" % n)
            else:
                prev[i], deltas[i] = step, new
        run = [i for i in run if out[i] is None]
    return out


def _alphas(plan):
    """_fixed_points of alpha_n's map from delta = 0 at every mode of plan."""
    k = len(plan.ns)
    return _fixed_points(plan, range(k), [0] * k, [0j] * k, [None] * k)


def alpha_fixed_point(ctx, n):
    """Fixed point alpha_n = n^2 pi^2 + a_n(alpha_n), iterated from n^2 pi^2
    until |step| < 1e-10 n^2 pi^2.  Requires n >= N_ms."""
    if n < ctx.N_ms:
        raise ThresholdError("alpha_n requires n >= N_ms = %d" % ctx.N_ms)
    return n * n * PI2 + _alphas(_OffsetPlan(ctx, [n]))[0][0]


def find_roots(ctx, n, xi_bound_grid=0):
    """find_roots_batch at n alone; a nonzero xi_bound_grid raises
    ValueError."""
    if xi_bound_grid:
        raise ValueError("xi_bound_grid must be 0: find_roots has no grid")
    return find_roots_batch(ctx, [n])[0]


def find_roots_batch(ctx, ns):
    """For each n of ns, both roots of det B_n in the disc |lambda - n^2
    pi^2| <= 4 sqrt(n), all on one offset plan.

    The offsets delta = lambda - n^2 pi^2 of alpha_n and the roots are fixed
    points of delta <- a_n(delta) (+-sqrt(b_n b_{-n})(delta)), which contract
    on the strip for n >= n_s (see _fixed_points).  One _fixed_points call
    finds every alpha_n, and a second both roots of every mode, started at
    alpha_n +- sqrt(b_n b_{-n}), so each round is one _evaluate for all
    modes.  An iteration that fails, alpha_n's or a root's, or a root that
    leaves the disc (RootError) raises its error.  Returns a
    ReductionResult per n with xi_j = n^2 pi^2 + delta_j, each delta_j the
    image of its last iterate, xi_1 before xi_2 by (Re, Im) (the labels
    lambda_n^-, lambda_n^+), the gap |delta_1 - delta_2|, the contraction
    bound (the worst Neumann ratio of the mode's evaluations), their count,
    and converged, False if a Neumann sum at the last iterate of alpha_n's
    or a root's iteration missed NEUMANN_TOL.  The first failure found
    ends the batch, its error raised at once: every alpha_n's before any
    root's, and with several failing modes it need not be the lowest n's.
    """
    ns = list(ns)
    if any(n < ctx.n_s for n in ns):
        raise ThresholdError("find_roots requires n >= n_s = %d" % ctx.n_s)
    plan = _OffsetPlan(ctx, ns)
    alphas = _alphas(plan)
    sq0 = [cmath.sqrt(c.b_n * c.b_neg_n) for _, c, _ in alphas]
    roots = _fixed_points(  # the + root, then the - root, of each mode
        plan, [i for i in range(len(ns)) for _ in (1, -1)], [1, -1] * len(ns),
        [d for (a, _, _), sq in zip(alphas, sq0) for d in (a + sq, a - sq)],
        [sq for sq in sq0 for _ in (1, -1)])
    out = []
    for n, (alpha, c0, e0), (d1, c1, e1), (d2, c2, e2) in zip(
            ns, alphas, roots[0::2], roots[1::2]):
        if max(abs(d1), abs(d2)) > 4.0 * math.sqrt(n):
            raise RootError("root left D_%d" % n)
        if (d2.real, d2.imag) < (d1.real, d1.imag):  # lambda_n^-, then ^+
            d1, d2 = d2, d1
        evals, center = e0 + e1 + e2, n * n * PI2
        out.append(ReductionResult(
            n=n, a_n=c0.a_n, b_n=c0.b_n, b_neg_n=c0.b_neg_n,
            alpha_n=center + alpha, xi_1=center + d1, xi_2=center + d2,
            gap_estimate=abs(d1 - d2), neumann_terms_used=c0.terms_used,
            contraction_bound=max(c.max_ratio for c in evals),
            method="fixed-point",
            converged=c0.converged and c1.converged and c2.converged,
            evaluations=len(evals)))
    return out


def adapted_coefficients(ctx, n_max):
    """Adapted coefficient sequence r: r_{2k} = q_{2k} for 0 < |k| < M_ms and
    r_{+-2k} = b_{+-k}(alpha_k) for M_ms <= k <= n_max: every alpha_k by
    one _fixed_points call on one offset plan, then one _evaluate at them
    all."""
    M = ctx.M_ms
    if n_max < M:
        raise ThresholdError("n_max must be >= M_ms")
    K = 2 * n_max
    r = np.zeros(2 * K + 1, dtype=complex)
    qs = ctx.q.support
    low = np.abs(qs.idx) < 2 * M
    r[qs.idx[low] + K] = qs.coeffs[low]
    plan = _OffsetPlan(ctx, range(M, n_max + 1))
    alphas = [a for a, _, _ in _alphas(plan)]
    for k, c in zip(plan.ns, _evaluate(plan, range(len(alphas)), alphas)):
        r[K + 2 * k] = c.b_n
        r[K - 2 * k] = c.b_neg_n
    return FourierSeq(r)


def gap_sandwich(ctx, n, r, gamma_n):
    """If |r_{2n}/r_{-2n}| is within [1/9, 9] (condition_met), the squared gap
    is sandwiched: lo = |r_{2n} r_{-2n}| <= |gamma_n|^2 <= 9 lo (holds)."""
    if n < ctx.M_ms:
        raise ThresholdError("gap_sandwich requires n >= M_ms")
    r2n, rm2n = r[2 * n], r[-2 * n]
    if rm2n == 0 or not 1.0 / 9.0 <= abs(r2n / rm2n) <= 9.0:
        return {"n": n, "condition_met": False}
    lo, gsq = abs(r2n * rm2n), abs(gamma_n) ** 2
    return {"n": n, "condition_met": True, "lo": lo,
            "holds": bool(lo <= gsq * (1 + 1e-9) + 1e-300
                          and gsq <= 9.0 * lo * (1 + 1e-9))}


def isolated_mode_sandwich(rng, offsets):
    """The gap sandwich at an isolated high mode: a random real base on
    |n| <= 8 (sup 0.05, from rng), plus q_{+-2k} = 0.01 at k = M_ms + o for
    o in offsets, with the base's M_ms; the roots, r and gap_sandwich at
    the first offset's mode n = M_ms + offsets[0].  Returns (ctx, roots,
    report)."""
    base = Potential.random_real(rng, 8, sup=0.05)
    M = make_context(base).M_ms
    pairs = [(k, base.coeff(2 * k)) for k in range(-8, 9) if k != 0]
    for k in offsets:
        pairs += [(M + k, 0.01), (-M - k, 0.01)]
    ctx = make_context(Potential.from_even_pairs(pairs, n_max=M + max(offsets)))
    n = M + offsets[0]
    res = find_roots(ctx, n)
    r = adapted_coefficients(ctx, n_max=n)
    return ctx, res, gap_sandwich(ctx, n, r, res.gap_estimate)
